package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unsafe"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/topn"
)

// The frozen model every trainable model installs as takes the
// streaming path.
var _ streamPredictor = (*markov.FrozenTree)(nil)

// TestClientContextSize guards the per-session record: with its
// streaming state (generation and node), an open session must stay in
// the 64-byte size class.
func TestClientContextSize(t *testing.T) {
	if n := unsafe.Sizeof(clientContext{}); n > 64 {
		t.Fatalf("clientContext is %d bytes, want at most 64", n)
	}
}

// walkPage is the second-order walk rule over n pages: after pages x
// and y comes (a·x + y) mod n. An order-1 context (just y) is followed
// by every page in training, but an order-2 context fixes the next one,
// so the hints depend on how deep the session's match runs.
func walkPage(n, a, x, y int) int { return (a*x + y) % n }

// walkSessions returns the 10-page walks of rule a over n pages from
// every starting pair.
func walkSessions(n, a int) [][]string {
	var out [][]string
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			seq := []string{fmt.Sprintf("/p%d", x), fmt.Sprintf("/p%d", y)}
			for px, py := x, y; len(seq) < 10; px, py = py, walkPage(n, a, px, py) {
				seq = append(seq, fmt.Sprintf("/p%d", walkPage(n, a, px, py)))
			}
			out = append(out, seq)
		}
	}
	return out
}

// walkModel trains PB-PPM on walks of rule a from every starting pair.
// Every page has the top grade, so each session is one branch of the
// default height 7.
func walkModel(n, a int) *core.Model {
	grades := popularity.FixedGrades{}
	for i := 0; i < n; i++ {
		grades[fmt.Sprintf("/p%d", i)] = 3
	}
	m := core.New(grades, core.Config{})
	for _, seq := range walkSessions(n, a) {
		m.TrainSequence(seq)
	}
	return m
}

// hintsFor sends one demand request and returns the response's hints.
func hintsFor(t *testing.T, srv *Server, client, url string) []markov.Prediction {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(HeaderClientID, client)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, rec.Code)
	}
	return ParseHints(rec.Header().Get(HeaderPrefetch))
}

// TestSessionAcrossModelSwapMatchesFreshSession: a session that spans
// SetPredictor swaps — frozen PB-PPM to frozen PB-PPM, to frozen
// blended PPM (which streams too), to a model that cannot stream (Top-N,
// which takes the context-tail path), and back — gets, after each swap,
// the hints and the match state a fresh session replaying its whole URL
// sequence gets from the model then published. The session walks by the
// rule of the model about to be served, so each swap lands mid-walk and
// the replayed state runs deep; sessions run past the 16-URL tail.
func TestSessionAcrossModelSwapMatchesFreshSession(t *testing.T) {
	const pages = 12
	store := MapStore{}
	for i := 0; i < pages; i++ {
		u := fmt.Sprintf("/p%d", i)
		store[u] = Document{URL: u, Body: make([]byte, 512)}
	}
	a, b := walkModel(pages, 1), walkModel(pages, 5)
	blended := ppm.New(ppm.Config{BlendOrders: true})
	for _, seq := range walkSessions(pages, 5) {
		blended.TrainSequence(seq)
	}
	top := topn.New()
	for _, seq := range walkSessions(pages, 1) {
		top.TrainSequence(seq)
	}
	rounds := []struct {
		model markov.Predictor
		rule  int
	}{{a.Freeze(), 1}, {b.Freeze(), 5}, {blended.Freeze(), 5}, {top, 1}, {a.Freeze(), 1}}
	srv := New(store, Config{MaxHints: 8})
	state := func(client string) (gen, node uint32) {
		ctx, _, _, _ := openSession(srv, client)
		return ctx.gen, ctx.node
	}
	seq := []string{"/p0", "/p1"}
	x, y := 0, 1
	hinted := 0
	for round, r := range rounds {
		srv.SetPredictor(r.model)
		streams := srv.pred.Load().stream != nil
		if streams != (r.model != top) {
			t.Fatalf("model %d (%T): streaming is %v", round, r.model, streams)
		}
		for k := 0; k < 20; k++ {
			if round > 0 || k > 0 {
				x, y = y, walkPage(pages, r.rule, x, y)
				seq = append(seq, fmt.Sprintf("/p%d", y))
			}
			u := seq[len(seq)-1]
			if round == 0 && k == 0 {
				hintsFor(t, srv, "spanning", seq[0])
			}
			got := hintsFor(t, srv, "spanning", u)
			fresh := fmt.Sprintf("fresh-%d-%d", round, k)
			var want []markov.Prediction
			for _, v := range seq {
				want = hintsFor(t, srv, fresh, v)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("model %d, request %d (%s): spanning session hinted %+v, fresh replay %+v",
					round, k, u, got, want)
			}
			if sg, sn := state("spanning"); streams {
				if fg, fn := state(fresh); sg != fg || sn != fn {
					t.Fatalf("model %d, request %d: spanning session state (gen %d, node %d), fresh replay (gen %d, node %d)",
						round, k, sg, sn, fg, fn)
				}
			}
			// Both sessions hint what the model predicts from the last 16
			// URLs (every page is small enough to hint).
			tail := seq
			if len(tail) > predictContextTail {
				tail = tail[len(tail)-predictContextTail:]
			}
			preds := markov.PredictInto(r.model, tail, nil)
			if len(preds) > 8 {
				preds = preds[:8]
			}
			if len(preds) != len(got) {
				t.Fatalf("model %d, request %d: hinted %+v, model predicts %+v", round, k, got, preds)
			}
			for i := range preds {
				if preds[i].URL != got[i].URL {
					t.Fatalf("model %d, request %d: hinted %+v, model predicts %+v", round, k, got, preds)
				}
			}
			hinted += len(got)
		}
	}
	if hinted == 0 {
		t.Fatal("no request drew a hint: the comparison is vacuous")
	}
	if gen, _ := state("spanning"); gen != srv.pred.Load().gen {
		t.Fatalf("session state is for generation %d, current model is %d", gen, srv.pred.Load().gen)
	}
}
