package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// testStore builds a small site: /home links into a news chain.
func testStore() MapStore {
	store := MapStore{}
	for url, size := range map[string]int{
		"/home":       4000,
		"/news":       3000,
		"/news/today": 2500,
		"/sports":     3500,
		"/huge":       64 * 1024,
	} {
		store[url] = Document{URL: url, Body: make([]byte, size)}
	}
	return store
}

// trainedPB builds a PB-PPM model that knows /home -> /news -> /news/today.
func trainedPB() *core.Model {
	grades := popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1, "/sports": 2, "/huge": 3}
	m := core.New(grades, core.Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"/home", "/news", "/news/today"})
	}
	return m
}

func TestServeDocument(t *testing.T) {
	srv := New(testStore(), Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/home")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if got := resp.ContentLength; got != 4000 {
		t.Errorf("Content-Length = %d", got)
	}
	if st := srv.Stats(); st.DemandRequests != 1 || st.SessionsStarted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNotFoundAndMethods(t *testing.T) {
	srv := New(testStore(), Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %s", resp.Status)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/home", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %s", resp.Status)
	}
	if st := srv.Stats(); st.NotFound != 1 {
		t.Errorf("NotFound = %d", st.NotFound)
	}
}

func TestHintsIssued(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/home", nil)
	req.Header.Set(HeaderClientID, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hints := ParseHints(resp.Header.Get(HeaderPrefetch))
	if len(hints) == 0 {
		t.Fatal("no hints on /home response")
	}
	if hints[0].URL != "/news" {
		t.Errorf("first hint = %+v, want /news", hints[0])
	}
	if st := srv.Stats(); st.HintsIssued == 0 {
		t.Error("HintsIssued = 0")
	}
}

func TestHintsRespectSizeCap(t *testing.T) {
	grades := popularity.FixedGrades{"/home": 3, "/huge": 3}
	m := core.New(grades, core.Config{})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"/home", "/huge"})
	}
	srv := New(testStore(), Config{Predictor: m})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/home", nil)
	req.Header.Set(HeaderClientID, "bob")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, h := range ParseHints(resp.Header.Get(HeaderPrefetch)) {
		if h.URL == "/huge" {
			t.Error("oversize document hinted")
		}
	}
}

func TestPrefetchRequestsExcludedFromContext(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(url string, prefetch bool) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
		req.Header.Set(HeaderClientID, "carol")
		if prefetch {
			req.Header.Set(HeaderPrefetchFetch, "1")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/home", false)
	get("/news", true) // prefetch: must not pollute the session context
	get("/sports", false)

	st := srv.Stats()
	if st.DemandRequests != 2 || st.PrefetchRequests != 1 {
		t.Errorf("stats = %+v", st)
	}
	ctx := srv.contextURLs("carol")
	if strings.Join(ctx, " ") != "/home /sports" {
		t.Errorf("context = %v", ctx)
	}
}

func TestSessionIdleSplitsContext(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	srv := New(testStore(), Config{Clock: clock, SessionIdle: 10 * time.Minute})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(url string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
		req.Header.Set(HeaderClientID, "dave")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/home")
	now = now.Add(11 * time.Minute)
	get("/news")
	if st := srv.Stats(); st.SessionsStarted != 2 {
		t.Errorf("SessionsStarted = %d, want 2", st.SessionsStarted)
	}
	ctx := srv.contextURLs("dave")
	if len(ctx) != 1 || ctx[0] != "/news" {
		t.Errorf("context after idle split = %v", ctx)
	}
	// Expiry removes contexts idle past the window.
	now = now.Add(time.Hour)
	if removed := srv.ExpireSessions(); removed != 1 {
		t.Errorf("ExpireSessions = %d", removed)
	}
}

func TestClientOf(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:9184":     "127.0.0.1",   // IPv4 with port
		"[2001:db8::1]:4242": "2001:db8::1", // bracketed IPv6 with port
		"[::1]:80":           "::1",         // loopback IPv6
		"2001:db8::1":        "2001:db8::1", // raw IPv6, no port: must not be truncated at the last colon
		"localhost:8080":     "localhost",   // hostname with port
		"@":                  "@",           // garbage passes through
	}
	for addr, want := range cases {
		req := httptest.NewRequest(http.MethodGet, "/home", nil)
		req.RemoteAddr = addr
		if got := (IdentityPolicy{}).ClientOf(req); got != want {
			t.Errorf("ClientOf(%q) = %q, want %q", addr, got, want)
		}
	}
	// The explicit client header always wins.
	req := httptest.NewRequest(http.MethodGet, "/home", nil)
	req.RemoteAddr = "[::1]:80"
	req.Header.Set(HeaderClientID, "alice")
	if got := (IdentityPolicy{}).ClientOf(req); got != "alice" {
		t.Errorf("header client = %q, want alice", got)
	}
}

// TestSetPredictorInstallsFrozenSnapshot: a live model is installed as
// its arena-backed snapshot, so training the live model afterwards
// leaves served hints unchanged until it is installed again, and
// serving writes no usage marks into it.
func TestSetPredictorInstallsFrozenSnapshot(t *testing.T) {
	m := trainedPB()
	srv := New(testStore(), Config{})
	if srv.Predictor() != nil {
		t.Fatal("a server built without a model reports one")
	}
	srv.SetPredictor(m)
	if _, ok := srv.Predictor().(markov.ArenaHolder); !ok {
		t.Fatalf("installed %T, want an arena-backed snapshot", srv.Predictor())
	}
	hints := func(client string) string {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/home", nil)
		req.Header.Set(HeaderClientID, client)
		srv.ServeHTTP(rec, req)
		return rec.Header().Get(HeaderPrefetch)
	}
	before := hints("a")
	if before == "" {
		t.Fatal("no hints from the installed snapshot")
	}
	// Retrain so /sports overtakes /news as /home's successor.
	for i := 0; i < 20; i++ {
		m.TrainSequence([]string{"/home", "/sports"})
	}
	if got := hints("b"); got != before {
		t.Errorf("training the live model changed served hints to %q, want %q", got, before)
	}
	if u := m.Utilization(); u != 0 {
		t.Errorf("serving wrote usage marks into the live model: utilization %v", u)
	}
	srv.SetPredictor(m)
	if got := hints("c"); got == before {
		t.Errorf("re-installing the retrained model left hints at %q", got)
	}
}

func TestParseHints(t *testing.T) {
	hints := ParseHints("/a;p=0.500, /b;p=0.250,/c, bogus;;p=x, ;p=1")
	if len(hints) != 4 {
		t.Fatalf("hints = %+v", hints)
	}
	if hints[0].URL != "/a" || hints[0].Probability != 0.5 {
		t.Errorf("first = %+v", hints[0])
	}
	if hints[1].URL != "/b" || hints[1].Probability != 0.25 {
		t.Errorf("second = %+v", hints[1])
	}
	if ParseHints("") != nil {
		t.Error("empty header parsed to hints")
	}
}

func TestNewPanicsOnNilStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) did not panic")
		}
	}()
	New(nil, Config{})
}

func TestConcurrentClients(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				url := []string{"/home", "/news", "/news/today", "/sports"}[j%4]
				req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
				req.Header.Set(HeaderClientID, fmt.Sprintf("client%d", id))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	if st := srv.Stats(); st.DemandRequests != 160 {
		t.Errorf("DemandRequests = %d, want 160", st.DemandRequests)
	}
}

func TestOnSessionEndHook(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	var mu sync.Mutex
	var ended [][]string
	var lasts []time.Time
	srv := New(testStore(), Config{
		Clock:       clock,
		SessionIdle: 10 * time.Minute,
		OnSessionEnd: func(client string, urls []string, last time.Time) {
			mu.Lock()
			ended = append(ended, append([]string{client}, urls...))
			lasts = append(lasts, last)
			mu.Unlock()
		},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(url string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+url, nil)
		req.Header.Set(HeaderClientID, "erin")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/home")
	get("/news")
	now = now.Add(time.Hour)
	get("/sports") // idle split ends the first session

	mu.Lock()
	n := len(ended)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("ended sessions = %d, want 1", n)
	}
	if strings.Join(ended[0], " ") != "erin /home /news" {
		t.Errorf("ended = %v", ended[0])
	}
	// last is the clock reading of the session's final demand request.
	if want := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC); !lasts[0].Equal(want) {
		t.Errorf("last = %v, want %v", lasts[0], want)
	}

	// Expiry also reports the open session.
	now = now.Add(time.Hour)
	if removed := srv.ExpireSessions(); removed != 1 {
		t.Errorf("ExpireSessions = %d", removed)
	}
	mu.Lock()
	n = len(ended)
	mu.Unlock()
	if n != 2 {
		t.Errorf("ended sessions after expiry = %d, want 2", n)
	}
}

// sharedBufferPredictor returns every prediction batch through the same
// backing array, the way a model serving from a reused buffer would.
// Regression: observeDemand used to filter hints into preds[:0],
// compacting them in place over this shared array and corrupting the
// batch another request was still reading.
type sharedBufferPredictor struct {
	buf   []markov.Prediction
	fresh []markov.Prediction
}

func (p *sharedBufferPredictor) Name() string               { return "shared-buf" }
func (p *sharedBufferPredictor) TrainSequence(seq []string) {}
func (p *sharedBufferPredictor) NodeCount() int             { return len(p.fresh) }
func (p *sharedBufferPredictor) Predict(ctx []string) []markov.Prediction {
	copy(p.buf, p.fresh)
	return p.buf[:len(p.fresh)]
}

func TestHintFilteringDoesNotMutatePredictorSlice(t *testing.T) {
	// /missing1 and /missing2 are not in the store, so filtering keeps
	// only /news and /sports — into slots 0 and 1 under the old in-place
	// compaction, overwriting /missing1 and /news in the shared buffer.
	fresh := []markov.Prediction{
		{URL: "/missing1", Probability: 0.9},
		{URL: "/news", Probability: 0.8},
		{URL: "/missing2", Probability: 0.7},
		{URL: "/sports", Probability: 0.6},
	}
	pred := &sharedBufferPredictor{buf: make([]markov.Prediction, len(fresh)), fresh: fresh}
	srv := New(testStore(), Config{Predictor: pred})

	hints := srv.observeDemand("alice", "/home", 0, time.Now())
	if len(hints) != 2 || hints[0].URL != "/news" || hints[1].URL != "/sports" {
		t.Fatalf("hints = %+v", hints)
	}
	// The predictor's buffer must still hold the batch it returned.
	for i, p := range pred.buf {
		if p != fresh[i] {
			t.Errorf("predictor buffer slot %d mutated: %+v, want %+v", i, p, fresh[i])
		}
	}
	// A second request through the same backing array sees intact data.
	hints2 := srv.observeDemand("bob", "/home", 0, time.Now())
	if len(hints2) != 2 || hints2[0].URL != "/news" || hints2[1].URL != "/sports" {
		t.Errorf("second batch corrupted: %+v", hints2)
	}
	// And the two hint slices are independent of each other.
	hints[0].URL = "/clobbered"
	if hints2[0].URL != "/news" {
		t.Error("hint slices share a backing array across requests")
	}
}

// TestHeaderNamesCanonical pins every protocol header name in canonical
// form: the server and the client index header maps by these constants,
// and net/http stores every header it parses under its canonical key.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, name := range []string{
		HeaderClientID, HeaderPrefetch, HeaderPrefetchFetch, HeaderPrefetchReport, HeaderPrefetchReportOnly,
	} {
		if c := http.CanonicalHeaderKey(name); c != name {
			t.Errorf("header name %q is not canonical, want %q", name, c)
		}
	}
}

// TestLowerCaseProtocolHeaders writes raw requests whose protocol
// header lines are lower case, as curl or a non-Go client may send
// them, and checks that the server still files them under the client's
// session and tells demand, prefetch and report-only requests apart.
func TestLowerCaseProtocolHeaders(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(path string, lines ...string) *http.Response {
		t.Helper()
		raw := "GET " + path + " HTTP/1.1\r\nhost: test\r\nx-client-id: raw-client\r\n" + strings.Join(lines, "") + "\r\n"
		if _, err := io.WriteString(conn, raw); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status and headers matter
		resp.Body.Close()
		return resp
	}

	resp := send("/home")
	if hints := ParseHints(resp.Header.Get(HeaderPrefetch)); len(hints) == 0 || hints[0].URL != "/news" {
		t.Fatalf("demand response hints = %+v, want /news first", hints)
	}
	send("/news", "x-prefetch-fetch: 1\r\n")
	if resp := send("/", "x-prefetch-report: /news;h=p\r\n", "x-prefetch-report-only: 1\r\n"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("report beacon status = %d, want 204", resp.StatusCode)
	}

	st := srv.Stats()
	if st.DemandRequests != 1 || st.PrefetchRequests != 1 || st.SessionsStarted != 1 || st.HintFetches != 1 || st.HintReportsUnmatched != 0 {
		t.Errorf("stats = %+v, want one demand and one hint fetch in one session, and the report matched", st)
	}
	if ctx := srv.contextURLs("raw-client"); len(ctx) != 1 || ctx[0] != "/home" {
		t.Errorf("raw-client session = %v, want [/home]", ctx)
	}
	if q := srv.QualityTotal(); q.PrefetchHits != 1 {
		t.Errorf("prefetch hits scored = %d, want the reported one", q.PrefetchHits)
	}
}
