package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/server"
)

// originStore mirrors the server-package test site.
func originStore() server.MapStore {
	store := server.MapStore{}
	for url, size := range map[string]int{
		"/home": 4000, "/news": 3000, "/news/today": 2500, "/sports": 3500,
	} {
		store[url] = server.Document{URL: url, Body: make([]byte, size)}
	}
	return store
}

func trainedPB() *core.Model {
	grades := popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1, "/sports": 2}
	m := core.New(grades, core.Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"/home", "/news", "/news/today"})
	}
	return m
}

// newChain stands up origin <- proxy and returns both plus the proxy's
// public URL.
func newChain(t *testing.T, cfg Config) (origin *server.Server, px *Proxy, proxyURL string, done func()) {
	t.Helper()
	origin = server.New(originStore(), server.Config{Predictor: trainedPB()})
	originTS := httptest.NewServer(origin)
	cfg.Origin = originTS.URL
	px, err := New(cfg)
	if err != nil {
		originTS.Close()
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(px)
	return origin, px, proxyTS.URL, func() {
		proxyTS.Close()
		originTS.Close()
	}
}

func get(t *testing.T, base, url, client string) (status int, cacheHeader string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, base+url, nil)
	if client != "" {
		req.Header.Set(server.HeaderClientID, client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode, resp.Header.Get("X-Proxy-Cache")
}

func TestProxyMissThenHit(t *testing.T) {
	_, px, base, done := newChain(t, Config{NoFollowHints: true})
	defer done()

	if status, hdr := get(t, base, "/sports", "alice"); status != 200 || hdr != "MISS" {
		t.Fatalf("first fetch: %d %s", status, hdr)
	}
	if status, hdr := get(t, base, "/sports", "bob"); status != 200 || hdr != "HIT" {
		t.Fatalf("second fetch: %d %s", status, hdr)
	}
	st := px.Stats()
	if st.Requests != 2 || st.Misses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyFollowsHints(t *testing.T) {
	origin, px, base, done := newChain(t, Config{})
	defer done()

	// alice's demand for /home makes the origin hint /news; the proxy
	// prefetches it.
	get(t, base, "/home", "alice")
	px.Wait()

	// bob's request for /news is a proxy prefetch hit — served without
	// touching the origin again.
	before := origin.Stats().DemandRequests
	if _, hdr := get(t, base, "/news", "bob"); hdr != "HIT" {
		t.Fatalf("hinted document not prefetched (header %s)", hdr)
	}
	if origin.Stats().DemandRequests != before {
		t.Error("proxy hit still reached the origin")
	}
	st := px.Stats()
	if st.Prefetched == 0 || st.PrefetchHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestProxyNoFollowHints(t *testing.T) {
	_, px, base, done := newChain(t, Config{NoFollowHints: true})
	defer done()
	get(t, base, "/home", "alice")
	px.Wait()
	if st := px.Stats(); st.Prefetched != 0 {
		t.Errorf("prefetched despite NoFollowHints: %+v", st)
	}
}

func TestProxyForwardsClientIdentity(t *testing.T) {
	origin, _, base, done := newChain(t, Config{NoFollowHints: true})
	defer done()
	get(t, base, "/home", "alice")
	get(t, base, "/news", "alice")
	// Two demand clicks by one client = one origin session.
	if st := origin.Stats(); st.SessionsStarted != 1 || st.DemandRequests != 2 {
		t.Errorf("origin stats = %+v", st)
	}
}

func TestProxyUpstreamErrors(t *testing.T) {
	px, err := New(Config{Origin: "http://127.0.0.1:1"}) // nothing listens
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(px)
	defer ts.Close()
	status, _ := get(t, ts.URL, "/x", "")
	if status != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", status)
	}
	if px.Stats().UpstreamError != 1 {
		t.Errorf("stats = %+v", px.Stats())
	}
}

func TestProxyMethodFilter(t *testing.T) {
	_, _, base, done := newChain(t, Config{NoFollowHints: true})
	defer done()
	resp, err := http.Post(base+"/home", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

func TestProxyEvictionDropsBodies(t *testing.T) {
	// A tiny cache churns; the body map must not grow unboundedly.
	_, px, base, done := newChain(t, Config{CacheBytes: 5000, NoFollowHints: true})
	defer done()
	for _, u := range []string{"/home", "/news", "/news/today", "/sports", "/home", "/news"} {
		get(t, base, u, "alice")
	}
	px.mu.Lock()
	bodies, entries := len(px.bodies), px.cache.Len()
	px.mu.Unlock()
	if bodies > entries+1 {
		t.Errorf("body map (%d) outgrew cache (%d entries)", bodies, entries)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing origin accepted")
	}
}

func TestEndToEndClientProxyOrigin(t *testing.T) {
	// Full §5 chain: browser client -> proxy -> origin, with hints
	// absorbed by the proxy.
	_, px, base, done := newChain(t, Config{})
	defer done()

	cl, err := server.NewClient(server.ClientConfig{ID: "walker", BaseURL: base})
	if err != nil {
		t.Fatal(err)
	}
	if src, err := cl.Get("/home"); err != nil || src != "network" {
		t.Fatalf("first click: %s %v", src, err)
	}
	px.Wait()
	// The client's own cache misses /news (the proxy received no hints
	// header to forward — hint absorption is proxy-side), but the proxy
	// serves it from its prefetched copy.
	if src, err := cl.Get("/news"); err != nil || src != "network" {
		t.Fatalf("second click: %s %v", src, err)
	}
	if st := px.Stats(); st.PrefetchHits != 1 {
		t.Errorf("proxy stats = %+v", st)
	}
}

func TestProxyForwardHints(t *testing.T) {
	_, px, base, done := newChain(t, Config{ForwardHints: true})
	defer done()

	// A client behind the forwarding proxy prefetches into its own
	// browser cache: two-level prefetching.
	cl, err := server.NewClient(server.ClientConfig{ID: "fw", BaseURL: base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/home"); err != nil {
		t.Fatal(err)
	}
	cl.Wait()
	px.Wait()
	src, err := cl.Get("/news")
	if err != nil {
		t.Fatal(err)
	}
	if src != "prefetch" {
		t.Errorf("source = %s, want prefetch (browser-level)", src)
	}
}

// TestProxyForwardsHintHeaderUnchanged: the X-Prefetch header a
// forwarding proxy sends downstream is the origin's, byte for byte,
// escaped URLs included.
func TestProxyForwardsHintHeaderUnchanged(t *testing.T) {
	want := server.FormatHints([]markov.Prediction{
		{URL: "/a,b", Probability: 0.75, Order: 2},
		{URL: "/c;d", Probability: 0.5, Order: 1},
		{URL: "/e", Probability: 0.25, Order: 1},
	})
	originTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.HeaderPrefetch, want)
		w.Write([]byte("page")) //nolint:errcheck
	}))
	defer originTS.Close()
	px, err := New(Config{Origin: originTS.URL, ForwardHints: true, NoFollowHints: true})
	if err != nil {
		t.Fatal(err)
	}
	proxyTS := httptest.NewServer(px)
	defer proxyTS.Close()

	resp, err := http.Get(proxyTS.URL + "/page")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(server.HeaderPrefetch); got != want {
		t.Errorf("forwarded %s = %q, origin sent %q", server.HeaderPrefetch, got, want)
	}
}
