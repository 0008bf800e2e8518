package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pbppm/internal/core"
	"pbppm/internal/popularity"
)

// TestSessionKeepsStoreURLs checks that the server's URL table, and so
// every URL an open session and its hint records name, holds the
// store's URL strings, not copies owned by the request or the model: a
// request path is a substring of its request line, and a model URL
// points into the model, so keeping either would pin far more than the
// URL for the session's lifetime.
func TestSessionKeepsStoreURLs(t *testing.T) {
	store := testStore()
	// Train on private copies so the model's URLs cannot share storage
	// with the store's string literals.
	grades := popularity.FixedGrades{"/home": 3, "/news": 2}
	model := core.New(grades, core.Config{})
	for i := 0; i < 5; i++ {
		model.TrainSequence([]string{strings.Clone("/home"), strings.Clone("/news")})
	}
	srv := New(store, Config{Predictor: model})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/home", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(HeaderClientID, "me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, urls, hints, ok := openSession(srv, "me")
	if !ok || len(urls) != 1 || len(hints) != 1 {
		t.Fatalf("open session = %+v with URLs %q and hints %+v, want one URL and one hint", ctx, urls, hints)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	table := tableURLs(srv)
	if len(table) != 2 {
		t.Errorf("URL table = %q, want the requested and the hinted URL", table)
	}
	for _, u := range table {
		if doc, ok := store[u]; !ok || !same(u, doc.URL) {
			t.Errorf("the table's %q is not the store's string", u)
		}
	}
	if !same(urls[0], store["/home"].URL) {
		t.Error("the session's URL is not the store's string")
	}
	if !same(srv.urls.url(hints[0].url), store["/news"].URL) {
		t.Error("the hint record's URL is not the store's string")
	}
}

// openSession returns a copy of client's open session record, its URLs,
// and copies of its outstanding hint records, oldest first; ok is false
// when the client has no open session.
func openSession(s *Server, client string) (ctx clientContext, urls []string, hints []hintRecord, ok bool) {
	sh := s.shard(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i := sh.contexts[client]
	if i == 0 {
		return clientContext{}, nil, nil, false
	}
	ctx = *sh.sessions.at(i)
	return ctx, s.urls.urlsOf(sh.runOf(&ctx)), hintList(sh, &ctx), true
}

// hintList returns copies of the session's outstanding hint records,
// oldest first.
func hintList(sh *contextShard, ctx *clientContext) []hintRecord {
	var out []hintRecord
	for h := ctx.head; h != 0; h = sh.hints.at(h).next {
		out = append(out, *sh.hints.at(h))
	}
	return out
}

// tableURLs returns every URL in the server's URL table, by id.
func tableURLs(s *Server) []string {
	s.urls.mu.Lock()
	defer s.urls.mu.Unlock()
	return append([]string(nil), s.urls.urls...)
}

// TestRetainedBytesPerOpenSession budgets what one open session keeps
// alive: 10k distinct clients each make one demand request that draws
// a hint, and the live heap may grow by at most 1 KB a client. The
// bound is generous (a session with one URL and one hint record,
// counted with its map entry and client ID, measures about 145 bytes on
// amd64); it trips when a session starts pinning request or model
// memory.
func TestRetainedBytesPerOpenSession(t *testing.T) {
	const clients = 10000
	srv := New(testStore(), Config{Predictor: trainedPB()})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < clients; i++ {
		r := httptest.NewRequest(http.MethodGet, "/home", nil)
		r.Header.Set(HeaderClientID, fmt.Sprintf("client-%05d", i))
		srv.ServeHTTP(httptest.NewRecorder(), r)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(srv.OpenSessions()); n != clients {
		t.Fatalf("%d open sessions, want %d", n, clients)
	}
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / clients
	t.Logf("retained %d bytes per open session", perSession)
	if perSession > 1024 {
		t.Fatalf("each open session retains %d bytes, budget 1024", perSession)
	}
	runtime.KeepAlive(srv)
}

// TestHeapInuseGrowthPerOpenSession budgets what an open session costs
// the heap in the shape of a flash crowd: about 20k never-seen visitors
// make 1–3 demand requests each through ServeHTTP, their clicks
// interleaved with each other's and with the requests' garbage. It
// bounds the growth of HeapInuse, which unlike the live bytes counts
// the partly used spans that small per-session objects pin among that
// garbage.
func TestHeapInuseGrowthPerOpenSession(t *testing.T) {
	const visitors = 20000
	clicks := []string{"/home", "/news", "/news/today"}
	srv := New(testStore(), Config{Predictor: trainedPB()})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Visitor i makes 1+i%3 clicks; each round makes the next click of
	// every visitor who has one left.
	for k := range clicks {
		for i := 0; i < visitors; i++ {
			if k > i%3 {
				continue
			}
			r := httptest.NewRequest(http.MethodGet, clicks[k], nil)
			r.Header.Set(HeaderClientID, fmt.Sprintf("visitor-%05d", i))
			srv.ServeHTTP(httptest.NewRecorder(), r)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(srv.OpenSessions()); n != visitors {
		t.Fatalf("%d open sessions, want %d", n, visitors)
	}
	perSession := (int64(after.HeapInuse) - int64(before.HeapInuse)) / visitors
	t.Logf("HeapInuse grew %d bytes per open session (HeapAlloc %d)",
		perSession, (int64(after.HeapAlloc)-int64(before.HeapAlloc))/visitors)
	if perSession > heapPerSessionBudget {
		t.Fatalf("each open session costs %d bytes of HeapInuse, budget %d", perSession, heapPerSessionBudget)
	}
	runtime.KeepAlive(srv)
}

// heapPerSessionBudget bounds TestHeapInuseGrowthPerOpenSession. On
// go1.24 linux/amd64 the growth measured about 148 bytes a session with
// sessions kept in their shards' slabs, and 241–250 bytes when each
// session had a context, a URL slice and a hint slice of its own.
const heapPerSessionBudget = 200

// BenchmarkOpenSession measures a new client's first demand request that
// draws a hint. Each op opens one session, whose record, URL run and
// hint record live in its shard's slabs, so the op's allocations are the
// response's own.
func BenchmarkOpenSession(b *testing.B) {
	srv := New(testStore(), Config{Predictor: trainedPB()})
	clients := make([][]string, b.N)
	for i := range clients {
		clients[i] = []string{fmt.Sprintf("visitor-%d", i)}
	}
	req := httptest.NewRequest(http.MethodGet, "/home", nil)
	w := discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Header[HeaderClientID] = clients[i]
		srv.ServeHTTP(w, req)
	}
	b.StopTimer()
	if st := srv.Stats(); st.SessionsStarted != int64(b.N) || st.HintsIssued < int64(b.N) {
		b.Fatalf("%d ops opened %d sessions and drew %d hints", b.N, st.SessionsStarted, st.HintsIssued)
	}
}

// discardWriter is a ResponseWriter that keeps one header map and drops
// the body, so a benchmark counts only the server's allocations.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (discardWriter) WriteHeader(int)             {}
