package server

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"pbppm/internal/markov"
)

func newPair(t *testing.T, cfg Config, ccfg ClientConfig) (*Server, *Client, func()) {
	t.Helper()
	srv := New(testStore(), cfg)
	ts := httptest.NewServer(srv)
	ccfg.BaseURL = ts.URL
	if ccfg.ID == "" {
		ccfg.ID = "tester"
	}
	cl, err := NewClient(ccfg)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	return srv, cl, ts.Close
}

func TestClientEndToEndPrefetch(t *testing.T) {
	_, cl, done := newPair(t, Config{Predictor: trainedPB()}, ClientConfig{})
	defer done()

	src, err := cl.Get("/home")
	if err != nil {
		t.Fatal(err)
	}
	if src != "network" {
		t.Errorf("first fetch source = %s", src)
	}
	cl.Wait() // drain the hinted prefetch of /news

	src, err = cl.Get("/news")
	if err != nil {
		t.Fatal(err)
	}
	if src != "prefetch" {
		t.Fatalf("second fetch source = %s, want prefetch", src)
	}
	// Another visit is a plain cache hit (MarkDemand cleared the tag).
	src, _ = cl.Get("/news")
	if src != "cache" {
		t.Errorf("third fetch source = %s, want cache", src)
	}

	st := cl.Stats()
	if st.Requests != 3 || st.PrefetchHits != 1 || st.CacheHits != 1 {
		t.Errorf("client stats = %+v", st)
	}
	if st.HitRatio() < 0.66 || st.HitRatio() > 0.67 {
		t.Errorf("hit ratio = %v", st.HitRatio())
	}
}

func TestClientChainAcrossClicks(t *testing.T) {
	srv, cl, done := newPair(t, Config{Predictor: trainedPB()}, ClientConfig{})
	defer done()

	if _, err := cl.Get("/home"); err != nil {
		t.Fatal(err)
	}
	cl.Wait()
	if _, err := cl.Get("/news"); err != nil { // prefetch hit; no new hints
		t.Fatal(err)
	}
	cl.Wait()
	// /news/today was hinted on the /home response at order 2?? No: it
	// is hinted when the server sees /news — but the /news click was a
	// prefetch hit and never reached the server. It must be fetched
	// from the network: the documented cost of piggyback prefetching.
	src, err := cl.Get("/news/today")
	if err != nil {
		t.Fatal(err)
	}
	if src == "" {
		t.Error("no source")
	}
	if srv.Stats().DemandRequests < 2 {
		t.Errorf("server demand = %+v", srv.Stats())
	}
}

func TestClientOversizePrefetchSkipped(t *testing.T) {
	// A Server never hints a document over 30 KB, so a stand-in server
	// hints one: /big (40 KB) on the /home response.
	var prefetches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderPrefetchFetch) != "" {
			prefetches.Add(1)
		}
		if r.URL.Path == "/home" {
			w.Header().Set(HeaderPrefetch, FormatHints([]markov.Prediction{{URL: "/big", Probability: 1}}))
			w.Write(make([]byte, 4000))
			return
		}
		w.Write(make([]byte, 40*1024))
	}))
	defer ts.Close()
	cl, err := NewClient(ClientConfig{ID: "tester", BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/home"); err != nil {
		t.Fatal(err)
	}
	cl.Wait()
	if prefetches.Load() != 1 {
		t.Fatalf("client made %d prefetch fetches, want 1", prefetches.Load())
	}
	// /big exceeds the client's 30 KB cap: next click misses.
	src, err := cl.Get("/big")
	if err != nil {
		t.Fatal(err)
	}
	if src != "network" {
		t.Errorf("source = %s, want network (prefetch skipped)", src)
	}
}

func TestClientErrorPaths(t *testing.T) {
	if _, err := NewClient(ClientConfig{BaseURL: "http://x"}); err == nil {
		t.Error("missing ID accepted")
	}
	if _, err := NewClient(ClientConfig{ID: "a"}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	for _, base := range []string{"http://[::1", "http://h/\x7f", "http://h/%zz"} {
		if _, err := NewClient(ClientConfig{ID: "a", BaseURL: base}); err == nil {
			t.Errorf("unparsable BaseURL %q accepted", base)
		}
	}
	_, cl, done := newPair(t, Config{}, ClientConfig{})
	defer done()
	if _, err := cl.Get("/missing"); err == nil {
		t.Error("404 fetch did not error")
	}
}

func TestManyClientsShareServer(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i := 0; i < 4; i++ {
		cl, err := NewClient(ClientConfig{ID: string(rune('a' + i)), BaseURL: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get("/home"); err != nil {
			t.Fatal(err)
		}
		cl.Wait()
		if src, _ := cl.Get("/news"); src != "prefetch" {
			t.Errorf("client %d: source = %s", i, src)
		}
	}
	if st := srv.Stats(); st.PrefetchRequests == 0 {
		t.Error("server saw no prefetch fetches")
	}
}

// TestClientPendingReportsBounded regresses the unbounded requeue path:
// a flapping server fails every delivery, so every Flush requeues its
// batch; the pending batch must stay capped at DefaultMaxPendingReports
// (drop-oldest) rather than grow with every local hit.
func TestClientPendingReportsBounded(t *testing.T) {
	cl, err := NewClient(ClientConfig{
		ID:      "tester",
		BaseURL: "http://127.0.0.1:1", // nothing listens: every delivery fails
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cache directly so every Get is a local cache hit that
	// queues a report without needing the (dead) server.
	cl.mu.Lock()
	cl.cache.Put("/page", 100, false)
	cl.mu.Unlock()

	const hits = DefaultMaxPendingReports + 50
	for i := 0; i < hits; i++ {
		if _, err := cl.Get("/page"); err != nil {
			t.Fatalf("cache-hit Get should not touch the network: %v", err)
		}
		if err := cl.Flush(); err == nil {
			t.Fatal("Flush against a dead server should fail")
		}
	}

	cl.mu.Lock()
	pending := len(cl.pending)
	cl.mu.Unlock()
	if pending > DefaultMaxPendingReports {
		t.Fatalf("pending batch grew to %d entries, cap is %d", pending, DefaultMaxPendingReports)
	}
	st := cl.Stats()
	if st.ReportsDropped != hits-int64(pending) {
		t.Fatalf("ReportsDropped = %d, want %d (%d queued, %d retained)",
			st.ReportsDropped, hits-pending, hits, pending)
	}

	// The retained entries are the newest: delivery order survives the
	// trims, so the head of the queue is the oldest survivor.
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, e := range cl.pending {
		if e.URL != "/page" {
			t.Fatalf("unexpected pending entry %+v", e)
		}
	}
}

// TestClientDefaultPendingCap checks a within-cap batch is never
// trimmed.
func TestClientDefaultPendingCap(t *testing.T) {
	cl, err := NewClient(ClientConfig{ID: "t", BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	cl.requeueReports([]ReportEntry{{URL: "/a"}, {URL: "/b"}})
	if st := cl.Stats(); st.ReportsDropped != 0 {
		t.Fatalf("within-cap requeue dropped %d reports", st.ReportsDropped)
	}
	if got := len(cl.takeReports()); got != 2 {
		t.Fatalf("takeReports returned %d entries, want 2", got)
	}
}

// TestClientReusesConnectionAfterErrorStatus checks that a non-200
// answer does not cost the keep-alive connection: fetch drains the short
// error body before closing it, so a 404 and the 200 after it travel
// over one dialed connection.
func TestClientReusesConnectionAfterErrorStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write(make([]byte, 512)) //nolint:errcheck
	}))
	defer ts.Close()
	var dials atomic.Int64
	dialer := &net.Dialer{}
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return dialer.DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	cl, err := NewClient(ClientConfig{ID: "t", BaseURL: ts.URL, HTTPClient: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/missing"); err == nil {
		t.Fatal("404 fetch did not error")
	}
	if _, err := cl.Get("/page"); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d connections for a 404 and a 200, want 1", n)
	}
}

// TestClientShortBodyFailsAndCachesNothing pins the streamed-size
// contract: a body shorter than its declared Content-Length is a read
// error — the demand Get fails, a hinted prefetch counts a
// PrefetchError, and neither caches the URL.
func TestClientShortBodyFailsAndCachesNothing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/short" {
			w.Header().Set("Content-Length", "1000")
			w.Write(make([]byte, 10)) //nolint:errcheck
			return
		}
		w.Header().Set(HeaderPrefetch, "/short;p=0.900")
		w.Write(make([]byte, 100)) //nolint:errcheck
	}))
	defer ts.Close()
	cl, err := NewClient(ClientConfig{ID: "t", BaseURL: ts.URL, SynchronousPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if src, err := cl.Get("/page"); err != nil || src != "network" {
		t.Fatalf("Get(/page) = %q, %v", src, err)
	}
	if st := cl.Stats(); st.PrefetchError != 1 || st.Prefetched != 0 {
		t.Fatalf("after a short hinted body: stats = %+v, want 1 PrefetchError and nothing prefetched", st)
	}
	if _, err := cl.Get("/short"); err == nil {
		t.Fatal("Get of a short body did not error")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.cache.Contains("/short") {
		t.Fatal("short body was cached")
	}
	if !cl.cache.Contains("/page") {
		t.Fatal("complete body was not cached")
	}
}

// docTransport answers every request in process with one fixed body,
// handed over by reference, so the transport allocates the same for any
// body size.
type docTransport struct{ body []byte }

func (d docTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Status:        "200 OK",
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Body:          io.NopCloser(bytes.NewReader(d.body)),
		ContentLength: int64(len(d.body)),
		Request:       req,
	}, nil
}

// TestClientGetAllocsIndependentOfBodySize checks the client never
// buffers a body: an in-process Get allocates the same for a 1 KB and a
// 64 KB document.
func TestClientGetAllocsIndependentOfBodySize(t *testing.T) {
	allocs := func(size int) float64 {
		cl, err := NewClient(ClientConfig{
			ID: "t", BaseURL: "http://inproc",
			// A 1-byte cache keeps every Get a network fetch.
			CacheBytes: 1,
			HTTPClient: &http.Client{Transport: docTransport{body: make([]byte, size)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := cl.Get("/doc"); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(64<<10)
	if small != large {
		t.Fatalf("Get allocs: %v for 1 KB, %v for 64 KB; the body is being buffered", small, large)
	}
}

// FuzzClientRequestURL checks the client's request builder against
// http.NewRequest on the joined base and path: the same method, host
// and URL fields, and an error exactly when NewRequest fails. The seeds
// cover both the appended plain paths and every fallback: queries,
// fragments, escapes, bytes a URL escapes, relative paths, and bases
// that cannot take an appended path.
func FuzzClientRequestURL(f *testing.F) {
	bases := []string{
		"http://h", "http://h/", "http://h:", "http://127.0.0.1:8080", "http://[::1]:80",
		"http://u:p@h/root", "http://h/a%20b", "http://h/a%2Fb", "http://h/?q=1", "http://h#f",
		"HTTP://H/X", "//h", "h:80", "mailto:x",
	}
	paths := []string{
		"/", "/d0/page0000.html", "", "x", "//evil/x", "/a b", "/a!b", "/q?x=1", "/f#frag",
		"/%41", "/%zz", "/bad\x7f", "/a,b;c=d", "/~u/@x:y$&+=", "/caf\xc3\xa9",
	}
	for _, base := range bases {
		for _, path := range paths {
			f.Add(base, path)
		}
	}
	f.Fuzz(func(t *testing.T, base, path string) {
		cl, err := NewClient(ClientConfig{ID: "fuzz", BaseURL: base})
		if err != nil {
			if _, perr := http.NewRequest(http.MethodGet, base, nil); perr == nil && base != "" {
				t.Fatalf("NewClient rejected base %q that NewRequest parses: %v", base, err)
			}
			return
		}
		want, wantErr := http.NewRequest(http.MethodGet, base+path, nil)
		got, gotErr := cl.request(path)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("request(%q) on base %q: error %v, NewRequest error %v", path, base, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Method != want.Method || got.Host != want.Host {
			t.Fatalf("request(%q) on base %q: %s host %q, NewRequest %s host %q",
				path, base, got.Method, got.Host, want.Method, want.Host)
		}
		g, w := got.URL, want.URL
		if g.Scheme != w.Scheme || g.Host != w.Host || g.Path != w.Path || g.RawPath != w.RawPath ||
			g.RawQuery != w.RawQuery || g.Fragment != w.Fragment || g.RequestURI() != w.RequestURI() {
			t.Fatalf("request(%q) on base %q: URL %#v, NewRequest %#v", path, base, g, w)
		}
		if id := got.Header.Get(HeaderClientID); id != "fuzz" {
			t.Fatalf("request(%q): client id %q", path, id)
		}
	})
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFlushBeaconRequest checks that a report beacon is built like any
// other request — the URL NewRequest gives base+"/" and the client's
// identity — and carries the batch and the report-only flag.
func TestFlushBeaconRequest(t *testing.T) {
	var sent []*http.Request
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		sent = append(sent, r)
		return docTransport{body: make([]byte, 10)}.RoundTrip(r)
	})
	const base = "http://beacon.test/root"
	cl, err := NewClient(ClientConfig{ID: "me", BaseURL: base, HTTPClient: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/page"); err != nil {
		t.Fatal(err)
	}
	if src, _ := cl.Get("/page"); src != "cache" { // queues a cache-hit report
		t.Fatalf("second view source = %s, want cache", src)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 2 {
		t.Fatalf("sent %d requests, want the fetch and the beacon", len(sent))
	}
	beacon := sent[1]
	want, err := http.NewRequest(http.MethodGet, base+"/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if beacon.URL.String() != want.URL.String() || beacon.Host != want.Host || beacon.Method != want.Method {
		t.Errorf("beacon %s %s host %q, want %s %s host %q",
			beacon.Method, beacon.URL, beacon.Host, want.Method, want.URL, want.Host)
	}
	for key, val := range map[string]string{
		HeaderClientID:           "me",
		HeaderPrefetchReport:     "/page;h=c",
		HeaderPrefetchReportOnly: "1",
	} {
		if got := beacon.Header.Get(key); got != val {
			t.Errorf("beacon %s = %q, want %q", key, got, val)
		}
	}
}

// inprocTransport calls the handler on the caller's goroutine, as the
// serving benchmark's in-process hop does: no socket, so the client's
// and the server's own work dominate the round trip.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &inprocRecorder{header: http.Header{}}
	t.h.ServeHTTP(rec, req)
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    rec.code,
		Status:        strconv.Itoa(rec.code) + " " + http.StatusText(rec.code),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body)),
		ContentLength: int64(len(rec.body)),
		Request:       req,
	}, nil
}

// inprocRecorder is a minimal http.ResponseWriter. A single Write is
// kept by reference — the server writes the store's immutable document
// bytes — so the in-process hop copies no body.
type inprocRecorder struct {
	header http.Header
	code   int
	body   []byte
}

func (r *inprocRecorder) Header() http.Header { return r.header }

func (r *inprocRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *inprocRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.body == nil {
		r.body = p
	} else {
		r.body = append(r.body[:len(r.body):len(r.body)], p...)
	}
	return len(p), nil
}

// BenchmarkClientPageView measures one page view across both ends of
// the hint protocol: a Client with synchronous prefetch whose transport
// calls Server.ServeHTTP in process. The client walks the benchmark
// site's 8-page ring through a cache of three pages, so it keeps
// missing: each network fetch brings hints, their prefetch fetches
// follow inline, the next view is a prefetch hit, and its report rides
// on the next request. CI gates its allocs/op.
func BenchmarkClientPageView(b *testing.B) {
	srv := New(benchStore(), Config{Predictor: benchModel().Freeze()})
	cl, err := NewClient(ClientConfig{
		ID:                  "bench-client",
		BaseURL:             "http://inproc",
		CacheBytes:          3 * 2048,
		HTTPClient:          &http.Client{Transport: inprocTransport{srv}},
		SynchronousPrefetch: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	urls := []string{"/p0", "/p1", "/p2", "/p3", "/p4", "/p5", "/p6", "/p7"}
	view := func(i int) {
		if _, err := cl.Get(urls[i%len(urls)]); err != nil {
			b.Fatal(err)
		}
	}
	// One lap warms the session, the hint records and the cache.
	for i := range urls {
		view(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view(i)
	}
}
