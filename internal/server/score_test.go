package server

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
)

// eventLog collects hint-lifecycle events from Config.OnHintEvent.
type eventLog struct {
	mu     sync.Mutex
	events []HintEvent
}

func (l *eventLog) add(ev HintEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) ofType(t HintEventType) []HintEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []HintEvent
	for _, ev := range l.events {
		if ev.Type == t {
			out = append(out, ev)
		}
	}
	return out
}

// doReport sends a report-only beacon carrying the given entries.
func doReport(h http.Handler, client string, entries []ReportEntry) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(HeaderClientID, client)
	req.Header.Set(HeaderPrefetchReport, FormatReport(entries))
	req.Header.Set(HeaderPrefetchReportOnly, "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHintLifecycleLiveScoring walks one hint through issued → fetched
// → hit (via a client report) and checks the event stream, the live
// quality scorer, and the exposed gauges agree.
func TestHintLifecycleLiveScoring(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	log := &eventLog{}
	reg := obs.NewRegistry()
	grades := popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1}
	srv := New(testStore(), Config{
		Predictor:   trainedPB(),
		Obs:         reg,
		Clock:       func() time.Time { return now },
		OnHintEvent: log.add,
		Grades:      grades,
	})

	// Demand /home: a miss scored against PB-PPM, hints issued.
	doGet(srv, "/home", "c1", false)
	issued := log.ofType(HintIssued)
	if len(issued) == 0 {
		t.Fatal("no Issued events after a hinted response")
	}
	if issued[0].URL != "/news" || issued[0].Model != "PB-PPM" || issued[0].Grade != 2 {
		t.Fatalf("Issued event = %+v", issued[0])
	}
	if issued[0].Probability <= 0 {
		t.Errorf("Issued probability = %v, want > 0", issued[0].Probability)
	}

	// The client prefetches the hint two seconds later.
	now = now.Add(2 * time.Second)
	doGet(srv, "/news", "c1", true)
	fetched := log.ofType(HintFetched)
	if len(fetched) != 1 || fetched[0].URL != "/news" || fetched[0].Age != 2*time.Second {
		t.Fatalf("Fetched events = %+v", fetched)
	}

	// The user navigates to /news served from the prefetched copy; the
	// client reports the hit on a beacon.
	now = now.Add(3 * time.Second)
	rec := doReport(srv, "c1", []ReportEntry{{URL: "/news", Outcome: quality.PrefetchHit}})
	if rec.Code != http.StatusNoContent {
		t.Fatalf("report beacon status = %d, want 204", rec.Code)
	}
	hits := log.ofType(HintHit)
	if len(hits) != 1 || hits[0].URL != "/news" || hits[0].Age != 5*time.Second {
		t.Fatalf("Hit events = %+v", hits)
	}
	if hits[0].Model != "PB-PPM" || hits[0].Grade != 2 {
		t.Fatalf("Hit event attribution = %+v", hits[0])
	}

	// The scorer saw: one miss (4000B), one prefetch (3000B), one
	// prefetch hit (3000B useful).
	got := srv.QualityTotal()
	want := quality.Snapshot{
		Requests:         2,
		PrefetchHits:     1,
		PrefetchedDocs:   1,
		TransferredBytes: 7000,
		UsefulBytes:      7000,
		PrefetchedBytes:  3000,
	}
	if got != want {
		t.Fatalf("QualityTotal = %+v, want %+v", got, want)
	}
	if p := got.Precision(); p != 1 {
		t.Errorf("precision = %v, want 1", p)
	}

	// The rolling window agrees with the cumulative totals (nothing has
	// aged out), and the gauges expose it.
	if w := srv.QualityWindow(0); w != got {
		t.Errorf("QualityWindow = %+v, want %+v", w, got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("live exposition invalid: %v", err)
	}
	for _, wantLine := range []string{
		`pbppm_live_precision{model="PB-PPM",grade="all"} 1`,
		`pbppm_live_precision{model="PB-PPM",grade="2"} 1`,
		`pbppm_live_hit_ratio{model="PB-PPM"} 0.5`,
		`pbppm_hint_events_total{event="fetched",grade="2"} 1`,
		`pbppm_hint_events_total{event="hit",grade="2"} 1`,
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("exposition missing %q", wantLine)
		}
	}
}

// TestDemandHitOnHintedURLScoresMiss: a demand re-fetch of a hinted URL
// confirms the prediction (lifecycle hit, legacy counter) but the
// prefetched copy did not serve it, so the scorer records a miss.
func TestDemandHitOnHintedURLScoresMiss(t *testing.T) {
	log := &eventLog{}
	srv := New(testStore(), Config{Predictor: trainedPB(), OnHintEvent: log.add})

	doGet(srv, "/home", "c1", false)
	doGet(srv, "/news", "c1", false) // demand, not prefetch
	if hits := log.ofType(HintHit); len(hits) != 1 {
		t.Fatalf("Hit events = %+v", hits)
	}
	if st := srv.Stats(); st.HintHits != 1 {
		t.Errorf("HintHits = %d, want 1", st.HintHits)
	}
	got := srv.QualityTotal()
	if got.PrefetchHits != 0 || got.Requests != 2 {
		t.Errorf("QualityTotal = %+v, want 2 requests and 0 prefetch hits", got)
	}
}

// TestWastedOnSessionExpiry: a fetched-but-never-hit hint emits Wasted
// when its session closes.
func TestWastedOnSessionExpiry(t *testing.T) {
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	log := &eventLog{}
	srv := New(testStore(), Config{
		Predictor:   trainedPB(),
		Clock:       func() time.Time { return now },
		SessionIdle: 10 * time.Minute,
		OnHintEvent: log.add,
	})

	doGet(srv, "/home", "c1", false)
	doGet(srv, "/news", "c1", true) // fetched, never navigated to
	now = now.Add(time.Hour)
	if removed := srv.ExpireSessions(); removed != 1 {
		t.Fatalf("ExpireSessions = %d, want 1", removed)
	}
	wasted := log.ofType(HintWasted)
	if len(wasted) != 1 || wasted[0].URL != "/news" {
		t.Fatalf("Wasted events = %+v", wasted)
	}
	if wasted[0].Age != time.Hour {
		t.Errorf("Wasted age = %v, want 1h", wasted[0].Age)
	}
	// Unfetched hints expire silently: no Wasted for /news/today even
	// if it was hinted.
	for _, ev := range wasted {
		if ev.URL == "/news/today" {
			t.Errorf("unfetched hint emitted Wasted: %+v", ev)
		}
	}
}

// TestOutOfRangeGradesAreClamped: a Grader may answer any integer, and
// the grade indexes the per-grade counters, so the server clamps it to
// [0, MaxGrade]: a negative grade counts under 0, one above 3 under 3.
func TestOutOfRangeGradesAreClamped(t *testing.T) {
	log := &eventLog{}
	reg := obs.NewRegistry()
	srv := New(testStore(), Config{
		Predictor:   trainedPB(),
		Obs:         reg,
		OnHintEvent: log.add,
		Grades:      popularity.FixedGrades{"/news": -1, "/news/today": 9},
	})
	// /home draws the hint /news (grade -1), and /news then draws
	// /news/today (grade 9); the client prefetches each hint and
	// reports its hit.
	for _, c := range []struct{ page, hint string }{
		{"/home", "/news"},
		{"/news", "/news/today"},
	} {
		doGet(srv, c.page, "c1", false)
		doGet(srv, c.hint, "c1", true)
		doReport(srv, "c1", []ReportEntry{{URL: c.hint, Outcome: quality.PrefetchHit}})
	}
	want := map[string]popularity.Grade{"/news": 0, "/news/today": popularity.MaxGrade}
	for _, typ := range []HintEventType{HintIssued, HintFetched, HintHit} {
		for u, g := range want {
			n := 0
			for _, ev := range log.ofType(typ) {
				if ev.URL != u {
					continue
				}
				n++
				if ev.Grade != g {
					t.Errorf("%s event for %s has grade %d, want %d", typ, u, ev.Grade, g)
				}
			}
			if n == 0 {
				t.Errorf("no %s event for %s", typ, u)
			}
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`pbppm_hint_events_total{event="fetched",grade="0"} 1`,
		`pbppm_hint_events_total{event="hit",grade="0"} 1`,
		`pbppm_hint_events_total{event="fetched",grade="3"} 1`,
		`pbppm_hint_events_total{event="hit",grade="3"} 1`,
		`pbppm_live_precision{model="PB-PPM",grade="0"} 1`,
		`pbppm_live_precision{model="PB-PPM",grade="3"} 1`,
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition missing %q", line)
		}
	}
}

// TestPerGradePrecisionIsScorerPrecision pins each grade's precision
// to the grade="all" definition, prefetch hits served from a
// prefetched copy over prefetched documents: a demand click on a
// hinted URL confirms the prediction but is no prefetch hit, so it
// moves neither.
func TestPerGradePrecisionIsScorerPrecision(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(testStore(), Config{
		Predictor: trainedPB(),
		Obs:       reg,
		Grades:    popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1},
	})
	expect := func(grade2, all string) {
		t.Helper()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{
			`pbppm_live_precision{model="PB-PPM",grade="2"} ` + grade2,
			`pbppm_live_precision{model="PB-PPM",grade="all"} ` + all,
		} {
			if !strings.Contains(sb.String(), line+"\n") {
				t.Errorf("exposition missing %q", line)
			}
		}
	}

	// c1 and c2 are both hinted /news; only c1 prefetches it, and both
	// click it, so both requests reach the server.
	doGet(srv, "/home", "c1", false)
	doGet(srv, "/home", "c2", false)
	doGet(srv, "/news", "c1", true)
	doGet(srv, "/news", "c1", false)
	doGet(srv, "/news", "c2", false)
	expect("0", "0")

	// c3 prefetches its /news hint and reports that the copy served it.
	doGet(srv, "/home", "c3", false)
	doGet(srv, "/news", "c3", true)
	doReport(srv, "c3", []ReportEntry{{URL: "/news", Outcome: quality.PrefetchHit}})
	expect("0.5", "0.5")
}

// TestPerGradeCountsSplitScorer replays seeded ServeHTTP and report
// sequences under a fixed grader and checks that the per-grade ring
// splits its model's scorer: over all grades the document columns sum
// to PrefetchedDocs and the hit columns to PrefetchHits, cumulatively
// (nothing ages out of the hour-long ring) and over shorter spans.
func TestPerGradeCountsSplitScorer(t *testing.T) {
	urls := []string{"/home", "/news", "/news/today", "/sports", "/missing"}
	for seed := int64(1); seed <= 5; seed++ {
		now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
		srv := New(testStore(), Config{
			Predictor:   trainedPB(),
			Clock:       func() time.Time { return now },
			SessionIdle: 2 * time.Minute,
			Grades:      popularity.FixedGrades{"/home": 3, "/news": 2, "/news/today": 1, "/sports": 9},
		})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			now = now.Add(time.Duration(rng.Intn(8000)) * time.Millisecond)
			client := string(rune('a' + rng.Intn(4)))
			url := urls[rng.Intn(len(urls))]
			switch op := rng.Intn(10); {
			case op < 5:
				doGet(srv, url, client, false)
			case op < 8:
				doGet(srv, url, client, true)
			case op < 9:
				doReport(srv, client, []ReportEntry{{URL: url, Outcome: quality.PrefetchHit}})
			default:
				doReport(srv, client, []ReportEntry{{URL: url, Outcome: quality.CacheHit}})
			}
		}
		if tot := srv.QualityTotal(); tot.PrefetchHits == 0 || tot.PrefetchedDocs == 0 {
			t.Fatalf("seed %d: replay scored no prefetch hits or documents: %+v", seed, tot)
		}
		srv.live.mu.Lock()
		for name, ms := range srv.live.models {
			for _, span := range []time.Duration{0, 5 * time.Minute, 30 * time.Second} {
				want := ms.score.Window(span)
				if span == 0 && want != ms.score.Total() {
					t.Fatalf("seed %d, %s: full window %+v, total %+v", seed, name, want, ms.score.Total())
				}
				var docs, hits int64
				sums := ms.grades.Sums(span)
				for g := 0; g < numGrades; g++ {
					docs += sums[g]
					hits += sums[numGrades+g]
				}
				if docs != want.PrefetchedDocs || hits != want.PrefetchHits {
					t.Errorf("seed %d, %s, span %v: grades sum to %d documents and %d hits, scorer has %d and %d",
						seed, name, span, docs, hits, want.PrefetchedDocs, want.PrefetchHits)
				}
			}
		}
		srv.live.mu.Unlock()
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := []ReportEntry{
		{URL: "/plain", Outcome: quality.CacheHit},
		{URL: "/has space;and,commas", Outcome: quality.PrefetchHit},
		{URL: "/pct%41", Outcome: quality.PrefetchHit},
	}
	out := ParseReport(FormatReport(in))
	if len(out) != len(in) {
		t.Fatalf("round trip lost entries: %+v", out)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	// Malformed entries are skipped, not fatal.
	got := ParseReport("/ok;h=c, broken, ;h=p, /bad;h=x")
	if len(got) != 1 || got[0].URL != "/ok" {
		t.Errorf("malformed parse = %+v", got)
	}
	if ParseReport("") != nil {
		t.Error("empty header parsed to entries")
	}
}

// TestBindSLIs wires a server into an SLO engine and checks all three
// signals deliver data from live traffic.
func TestBindSLIs(t *testing.T) {
	objs, err := obs.ParseObjectives(
		"name=lat,kind=latency,threshold=1s,target=0.5; kind=precision,target=0.01; kind=hit_ratio,target=0.01")
	if err != nil {
		t.Fatal(err)
	}
	engine := obs.NewSLOEngine(objs)
	srv := New(testStore(), Config{Predictor: trainedPB()})
	srv.BindSLIs(engine)

	doGet(srv, "/home", "c1", false)
	doGet(srv, "/news", "c1", true)
	doReport(srv, "c1", []ReportEntry{{URL: "/news", Outcome: quality.PrefetchHit}})

	rep := engine.Evaluate()
	for _, st := range rep.Objectives {
		if st.State == obs.SLOStateNoData {
			t.Errorf("objective %s has no data after live traffic", st.Name)
		}
		if st.State != obs.SLOStateOK {
			t.Errorf("objective %s state = %s, want ok (traffic easily meets the lax targets)", st.Name, st.State)
		}
	}
}

// TestLiveScoringConcurrent hammers the full live-scoring surface —
// demand traffic, prefetches, reports, model swaps, expiry, scrapes,
// and SLO evaluation — from many goroutines. Run with -race; it also
// sanity-checks conservation at the end.
func TestLiveScoringConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	engine := obs.NewSLOEngine([]obs.Objective{
		{Name: "lat", Kind: "latency", Threshold: time.Second, Target: 0.5},
	})
	srv := New(testStore(), Config{
		Predictor:   trainedPB(),
		Obs:         reg,
		SessionIdle: time.Minute,
		OnHintEvent: func(HintEvent) {},
	})
	srv.BindSLIs(engine)

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	urls := []string{"/home", "/news", "/news/today", "/sports"}
	for g := 0; g < workers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := string(rune('a' + g))
			for i := 0; i < perWorker; i++ {
				doGet(srv, urls[i%len(urls)], client, i%5 == 4)
				if i%7 == 0 {
					doReport(srv, client, []ReportEntry{{URL: "/news", Outcome: quality.PrefetchHit}})
				}
				if i%11 == 0 {
					doReport(srv, client, []ReportEntry{{URL: "/home", Outcome: quality.CacheHit}})
				}
			}
		}()
	}
	// Concurrent readers: metric scrapes and SLO evaluation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			_ = engine.Evaluate()
			srv.ExpireSessions()
		}
	}()
	wg.Wait()

	got := srv.QualityTotal()
	if got.Requests == 0 || got.TransferredBytes == 0 {
		t.Fatalf("no traffic scored: %+v", got)
	}
	if got.PrefetchHits > got.Requests {
		t.Errorf("conservation violated: %+v", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(sb.String()); err != nil {
		t.Fatalf("exposition invalid after load: %v", err)
	}
}
