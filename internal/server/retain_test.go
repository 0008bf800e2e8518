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

// TestSessionKeepsStoreURLs checks that an open session holds the
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

	sh := srv.shard("me")
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ctx := sh.contexts["me"]
	if ctx == nil || len(ctx.urls) != 1 || len(ctx.hinted) != 1 {
		t.Fatalf("open session = %+v, want one URL and one hint", ctx)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(ctx.urls[0], store["/home"].URL) {
		t.Error("the session's URL is not the store's string")
	}
	if !same(ctx.hinted[0].url, store["/news"].URL) {
		t.Error("the hint record's URL is not the store's string")
	}
}

// TestRetainedBytesPerOpenSession budgets what one open session keeps
// alive: 10k distinct clients each make one demand request that draws
// a hint, and the live heap may grow by at most 1 KB a client. The
// bound is generous (a session with one URL and one hint record,
// counted with its map entry, measures about 200 bytes on amd64); it
// trips when a session starts pinning request or model memory.
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
