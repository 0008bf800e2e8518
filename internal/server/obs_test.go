package server

import (
	"strings"
	"testing"

	"pbppm/internal/obs"
)

// TestMetricsExposition serves traffic through an instrumented server
// and checks the /metrics exposition end to end: the text parses, and
// the request, latency, and hint families carry the observed values.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(testStore(), Config{Predictor: trainedPB(), Obs: reg})

	doGet(srv, "/home", "c1", false)
	doGet(srv, "/news", "c1", false)
	doGet(srv, "/missing", "c1", false)
	doGet(srv, "/news/today", "c1", true) // hint-driven prefetch

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := sb.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, text)
	}
	for _, want := range []string{
		`pbppm_http_requests_total{kind="demand"} 2`,
		`pbppm_http_requests_total{kind="prefetch"} 1`,
		"pbppm_http_not_found_total 1",
		"pbppm_sessions_started_total 1",
		`pbppm_http_request_seconds_count{kind="demand"} 2`,
		`pbppm_http_request_seconds_count{kind="prefetch"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// /home is trained toward /news: at least one hint was issued.
	if st := srv.Stats(); st.HintsIssued == 0 {
		t.Error("no hints issued for trained sequence")
	}
	if !strings.Contains(text, "pbppm_hints_issued_total") {
		t.Errorf("exposition missing hints counter\n%s", text)
	}
}

// TestHintHitCounters drives the full hint loop: a hint is issued, the
// client prefetches it (hint fetch), then the user navigates to it
// (hint hit) — the live precision counters of §4.
func TestHintHitCounters(t *testing.T) {
	srv := New(testStore(), Config{Predictor: trainedPB()})

	// /home hints /news with the trained model.
	rec := doGet(srv, "/home", "c1", false)
	if rec.Header().Get(HeaderPrefetch) == "" {
		t.Fatal("no hint issued for /home")
	}
	if !strings.Contains(rec.Header().Get(HeaderPrefetch), "/news") {
		t.Fatalf("hint = %q, want /news", rec.Header().Get(HeaderPrefetch))
	}

	// The cooperating client prefetches the hinted URL.
	doGet(srv, "/news", "c1", true)
	if st := srv.Stats(); st.HintFetches != 1 {
		t.Errorf("HintFetches = %d, want 1", st.HintFetches)
	}

	// The user then actually navigates there: a hint hit.
	doGet(srv, "/news", "c1", false)
	st := srv.Stats()
	if st.HintHits != 1 {
		t.Errorf("HintHits = %d, want 1", st.HintHits)
	}

	// A second demand click on the same URL must not double-count: the
	// hint was consumed.
	doGet(srv, "/news", "c1", false)
	if st := srv.Stats(); st.HintHits != 1 {
		t.Errorf("HintHits after repeat = %d, want 1", st.HintHits)
	}

	// Another client was never hinted: no hit.
	doGet(srv, "/news", "c2", false)
	if st := srv.Stats(); st.HintHits != 1 {
		t.Errorf("HintHits after other client = %d, want 1", st.HintHits)
	}
}

func TestHintMemoryBounded(t *testing.T) {
	urls := newURLTable()
	var sh contextShard
	ctx := sh.sessions.at(sh.open())
	var names []string
	for i := 0; i < 3*hintMemory; i++ {
		url := strings.Repeat("x", 1) + string(rune('a'+i%26)) + string(rune('0'+i/26))
		names = append(names, url)
	}
	// batch is the records of names issued at stamp issued.
	batch := func(names []string, issued int64) []hintRecord {
		var recs []hintRecord
		for _, u := range names {
			recs = append(recs, hintRecord{url: urls.intern(u, u), prob: 0.5, issued: issued})
		}
		return recs
	}
	// Fill the memory, then mark every other outstanding hint fetched.
	if dropped := sh.recordHinted(ctx, batch(names[:hintMemory], 1), hintMemory, nil); len(dropped) != 0 {
		t.Fatalf("dropped %d records below the cap", len(dropped))
	}
	for i, h := 0, ctx.head; h != 0; i, h = i+1, sh.hints.at(h).next {
		sh.hints.at(h).fetched = i%2 == 0
	}
	dropped := sh.recordHinted(ctx, batch(names[hintMemory:], 2), hintMemory, nil)
	if n := len(hintList(&sh, ctx)); n > hintMemory || int(ctx.hints) != n {
		t.Errorf("hinted grew to %d (counted %d), cap is %d", n, ctx.hints, hintMemory)
	}
	if len(dropped) != len(names)-hintMemory {
		t.Errorf("dropped %d records, want %d", len(dropped), len(names)-hintMemory)
	}
	// The newest hints survive.
	if h, _ := sh.findHint(ctx, urls.intern(names[len(names)-1], names[len(names)-1])); h == 0 {
		t.Error("newest hint was evicted")
	}
	if h, _ := sh.findHint(ctx, urls.intern(names[0], names[0])); h != 0 {
		t.Error("oldest hint survived past the cap")
	}
	// Dropped records keep their state so Wasted events can fire: the
	// first hintMemory dropped are the first batch, oldest first.
	for i, rec := range dropped[:hintMemory] {
		if urls.url(rec.url) != names[i] || rec.issued != 1 || rec.fetched != (i%2 == 0) {
			t.Fatalf("dropped[%d] = %+v, want %s issued at 1 with fetched=%v", i, rec, names[i], i%2 == 0)
		}
	}
}

// TestTracerSamplesPredictPath verifies the predict-path tracer records
// stage timings through real ServeHTTP traffic when sampling every
// call, and stays silent when built with sampling off.
func TestTracerSamplesPredictPath(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg, 1)
	srv := New(testStore(), Config{Predictor: trainedPB(), Obs: reg, Tracer: tr})

	doGet(srv, "/home", "c1", false)
	doGet(srv, "/news", "c1", false)

	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("sampled %d traces, want 2", len(recent))
	}
	if recent[0].URL != "/news" || recent[0].Client != "c1" {
		t.Errorf("newest trace = %+v", recent[0])
	}

	off := obs.NewTracer(nil, 0)
	offSrv := New(testStore(), Config{Predictor: trainedPB(), Tracer: off})
	doGet(offSrv, "/home", "c1", false)
	doGet(offSrv, "/news", "c1", false)
	if got := len(off.Recent()); got != 0 {
		t.Errorf("sampling off still recorded: %d traces", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `pbppm_predict_stage_seconds_count{stage="predict"} 2`) {
		t.Errorf("exposition missing predict-stage histogram:\n%s", sb.String())
	}
}
