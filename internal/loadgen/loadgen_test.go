package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"pbppm/internal/obs"
	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// testProfile is a small site profile that keeps tests fast.
func testProfile() tracegen.Profile {
	p := tracegen.NASA()
	p.Pages = 80
	p.EntryCount = 8
	return p
}

func testSite(t *testing.T) (*tracegen.Site, tracegen.Profile) {
	t.Helper()
	p := testProfile()
	site, err := tracegen.BuildSite(p)
	if err != nil {
		t.Fatalf("BuildSite: %v", err)
	}
	return site, p
}

// TestOpenLoopStalledServer is the open-loop semantics proof: a server
// that stops answering must not slow the arrival schedule down. The
// generator keeps dispatching on time (schedule lag stays small while
// nothing completes), requests pile up in flight, and the stall
// surfaces as timeouts — not as a politely reduced request rate, which
// is the coordinated-omission failure closed-loop generators have.
func TestOpenLoopStalledServer(t *testing.T) {
	site, p := testSite(t)
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	defer close(release)

	g, err := New(Config{
		ServerURL: ts.URL,
		Site:      site,
		Profile:   p,
		Clients:   20,
		Seed:      7,
		Timeout:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const rps, dur = 200.0, 250 * time.Millisecond
	res, err := g.Run(context.Background(), Scenario{Name: "stall", Slots: []Slot{
		{Label: "stall", RPS: rps, Duration: dur},
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	slot := res.Slots[0]
	want := int64(rps * dur.Seconds())
	// The schedule must have run to completion against a server that
	// never answered: allow scheduling slop, not omission.
	if slot.Dispatched < want*8/10 {
		t.Fatalf("dispatched %d of %d scheduled arrivals against a stalled server (closed-loop behavior)",
			slot.Dispatched, want)
	}
	if slot.Completed != 0 {
		t.Fatalf("stalled server completed %d requests", slot.Completed)
	}
	if slot.Timeouts != slot.Dispatched {
		t.Fatalf("timeouts %d != dispatched %d: a stalled request escaped the timeout accounting",
			slot.Timeouts, slot.Dispatched)
	}
	// Dispatch stayed on schedule: lag p99 far below the slot length.
	// The bound is generous for noisy CI machines; the failure mode it
	// guards (dispatcher blocking on responses) produces lag on the
	// order of the whole slot.
	if lag := slot.Lag.Quantile(0.99); lag > 100*time.Millisecond {
		t.Fatalf("schedule lag p99 %v: dispatcher was coupled to the stalled server", lag)
	}
	if slot.Lag.Count() != slot.Dispatched {
		t.Fatalf("lag observations %d != dispatched %d", slot.Lag.Count(), slot.Dispatched)
	}
}

// TestDeterministicRequestSequence: the same seed yields the same
// dispatch choices (client + URL) regardless of server timing, because
// all randomness lives on the dispatcher goroutine.
func TestDeterministicRequestSequence(t *testing.T) {
	site, p := testSite(t)
	sequence := func(seed int64, delay time.Duration) []string {
		var mu sync.Mutex
		var urls []string
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(server.HeaderPrefetchFetch) == "" && r.Header.Get("X-Prefetch-Report-Only") == "" {
				mu.Lock()
				urls = append(urls, r.Header.Get(server.HeaderClientID)+" "+r.URL.Path)
				mu.Unlock()
			}
			time.Sleep(delay)
		}))
		defer ts.Close()
		g, err := New(Config{ServerURL: ts.URL, Site: site, Profile: p, Clients: 5, Seed: seed,
			Timeout: time.Second})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		_, err = g.Run(context.Background(), Scenario{Name: "det", Slots: []Slot{
			{Label: "s", RPS: 400, Duration: 100 * time.Millisecond},
		}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return urls
	}
	// Demand arrival ORDER at the server can race, but the dispatched
	// multiset must match across timings; compare sorted.
	a := sorted(sequence(42, 0))
	b := sorted(sequence(42, 2*time.Millisecond))
	c := sorted(sequence(43, 0))
	if len(a) == 0 {
		t.Fatal("no demand requests recorded")
	}
	if !equal(a, b) {
		t.Fatalf("same seed produced different request sets:\n%v\n%v", a, b)
	}
	if equal(a, c) {
		t.Fatal("different seeds produced identical request sets")
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunAgainstLiveServer drives the real prefetching server and
// checks the accounting invariants plus the cold-flood and SLO-poll
// paths.
func TestRunAgainstLiveServer(t *testing.T) {
	site, p := testSite(t)
	store := StoreFromSite(site)
	srv := server.New(store, server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A canned admin endpoint exercises the /debug/slo poll without
	// booting the whole daemon.
	admin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/slo" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(`{"generated_at":"2026-08-07T00:00:00Z","objectives":[
			{"name":"lat","kind":"latency","target":0.9,"state":"ok","windows":[]},
			{"name":"precision","kind":"precision","target":0.3,"state":"burning","windows":[]}]}`))
	}))
	defer admin.Close()

	reg := obs.NewRegistry()
	g, err := New(Config{
		ServerURL: ts.URL,
		AdminURL:  admin.URL,
		Site:      site,
		Profile:   p,
		Clients:   10,
		Seed:      11,
		Timeout:   2 * time.Second,
		Obs:       reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := g.Run(context.Background(), Scenario{Name: "mix", Slots: []Slot{
		{Label: "warm", RPS: 150, Duration: 200 * time.Millisecond},
		{Label: "cold", RPS: 150, Duration: 200 * time.Millisecond, ColdShare: 0.5, HeadShift: 20},
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Slots) != 2 {
		t.Fatalf("slots = %d, want 2", len(res.Slots))
	}
	for _, s := range res.Slots {
		if s.Dispatched == 0 {
			t.Fatalf("slot %s dispatched nothing", s.Slot.Label)
		}
		if s.Completed+s.Errors() != s.Dispatched {
			t.Fatalf("slot %s: completed %d + errors %d != dispatched %d",
				s.Slot.Label, s.Completed, s.Errors(), s.Dispatched)
		}
		if s.Network+s.CacheHits+s.PrefetchHits != s.Completed {
			t.Fatalf("slot %s: source split %d+%d+%d != completed %d",
				s.Slot.Label, s.Network, s.CacheHits, s.PrefetchHits, s.Completed)
		}
		if int64(s.Latency.Count()) != s.Completed {
			t.Fatalf("slot %s: %d latency observations for %d completions",
				s.Slot.Label, s.Latency.Count(), s.Completed)
		}
		if s.SLO == nil || s.SLO.State != obs.SLOStateBurning {
			t.Fatalf("slot %s: SLO snapshot %+v, want worst state burning", s.Slot.Label, s.SLO)
		}
	}
	if res.ErrorRate() != 0 {
		t.Fatalf("healthy server produced error rate %v", res.ErrorRate())
	}
	// The cold flood opened fresh sessions: far more clients than the
	// warm pool reached the server.
	if st := srv.Stats(); st.SessionsStarted <= 10 {
		t.Fatalf("sessions started = %d, want > warm pool of 10 (cold flood missing)", st.SessionsStarted)
	}
	if res.Latency().Count() != res.Completed() {
		t.Fatalf("merged latency count %d != completed %d", res.Latency().Count(), res.Completed())
	}
}

// TestFindMaxCeiling: a fast in-process server passes every trial, so
// the search stops at the configured cap and reports it as a lower
// bound on capacity.
func TestFindMaxCeiling(t *testing.T) {
	site, p := testSite(t)
	ts := httptest.NewServer(server.New(StoreFromSite(site), server.Config{}))
	defer ts.Close()
	g, err := New(Config{ServerURL: ts.URL, Site: site, Profile: p, Clients: 10, Seed: 3,
		Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := g.FindMax(context.Background(), 50, 150*time.Millisecond, Gate{
		MaxRPS: 200, MaxLag: 5 * time.Second, MaxLatency: 2 * time.Second, MaxErrorRate: 0.5,
	})
	if err != nil {
		t.Fatalf("FindMax: %v", err)
	}
	if !res.CeilingReached || res.MaxSustainableRPS != 200 {
		t.Fatalf("result = %+v, want ceiling reached at 200 rps", res)
	}
	// 50, 100, 200 — doubling to the cap.
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d, want 3", len(res.Trials))
	}
}

// TestFindMaxGateFailsAtStart: an impossible latency gate fails the
// first trial, reporting zero capacity rather than probing below the
// caller's floor.
func TestFindMaxGateFailsAtStart(t *testing.T) {
	site, p := testSite(t)
	ts := httptest.NewServer(server.New(StoreFromSite(site), server.Config{}))
	defer ts.Close()
	g, err := New(Config{ServerURL: ts.URL, Site: site, Profile: p, Clients: 5, Seed: 3,
		Timeout: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := g.FindMax(context.Background(), 40, 100*time.Millisecond, Gate{
		MaxLatency: time.Nanosecond, MaxLag: 5 * time.Second, MaxErrorRate: 0.5, MaxRPS: 80,
	})
	if err != nil {
		t.Fatalf("FindMax: %v", err)
	}
	if res.MaxSustainableRPS != 0 || res.GeneratorLimited {
		t.Fatalf("result = %+v, want zero capacity, not generator-limited", res)
	}
	if len(res.Trials) != 1 || res.Trials[0].Pass {
		t.Fatalf("trials = %+v, want one failing trial", res.Trials)
	}
}

// TestFindMaxGeneratorLimited: when the lag gate trips, the failure is
// attributed to the generator, not the server.
func TestFindMaxGeneratorLimited(t *testing.T) {
	site, p := testSite(t)
	ts := httptest.NewServer(server.New(StoreFromSite(site), server.Config{}))
	defer ts.Close()
	g, err := New(Config{ServerURL: ts.URL, Site: site, Profile: p, Clients: 5, Seed: 3,
		Timeout: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Lag is quantized to histogram buckets, so any dispatch reports at
	// least the first bound — a sub-bucket MaxLag always trips.
	res, err := g.FindMax(context.Background(), 40, 100*time.Millisecond, Gate{
		MaxLag: time.Nanosecond, MaxRPS: 80,
	})
	if err != nil {
		t.Fatalf("FindMax: %v", err)
	}
	if !res.GeneratorLimited {
		t.Fatalf("result = %+v, want generator-limited", res)
	}
}

// TestScenarioBuilders pins the shapes of the four scenario modes.
func TestScenarioBuilders(t *testing.T) {
	sw := Sweep(10, 10, 30, time.Second)
	if len(sw.Slots) != 3 || sw.Slots[0].RPS != 10 || sw.Slots[2].RPS != 30 {
		t.Fatalf("sweep slots = %+v", sw.Slots)
	}
	st := Steady(50, 25*time.Second, 10*time.Second)
	if len(st.Slots) != 3 || st.Slots[2].Duration != 5*time.Second {
		t.Fatalf("steady slots = %+v", st.Slots)
	}
	b := Burst(20, 5, time.Second, 40, 0.5)
	if len(b.Slots) != 6 {
		t.Fatalf("burst slots = %d, want 6", len(b.Slots))
	}
	if b.Slots[2].RPS != 100 || b.Slots[2].HeadShift != 40 || b.Slots[2].ColdShare != 0.5 {
		t.Fatalf("burst peak slot = %+v", b.Slots[2])
	}
	if b.Slots[0].HeadShift != 0 || b.Slots[4].HeadShift != 40 {
		t.Fatalf("burst warm/recover head shifts = %d/%d, want 0/40",
			b.Slots[0].HeadShift, b.Slots[4].HeadShift)
	}
	d := Diurnal(100, 12, time.Second)
	if len(d.Slots) != 12 {
		t.Fatalf("diurnal slots = %d, want 12", len(d.Slots))
	}
	var min, max float64 = d.Slots[0].RPS, d.Slots[0].RPS
	for _, s := range d.Slots {
		if s.RPS < min {
			min = s.RPS
		}
		if s.RPS > max {
			max = s.RPS
		}
	}
	if min > 11 || max < 90 {
		t.Fatalf("diurnal range [%v, %v], want trough ~10 and peak ~100", min, max)
	}
	// Degenerate scenarios are rejected before dispatch.
	for _, bad := range []Scenario{
		{Name: "empty"},
		{Name: "negrps", Slots: []Slot{{RPS: -1, Duration: time.Second}}},
		{Name: "nodur", Slots: []Slot{{RPS: 1}}},
		{Name: "cold", Slots: []Slot{{RPS: 1, Duration: time.Second, ColdShare: 1.5}}},
	} {
		if err := bad.validate(); err == nil {
			t.Errorf("scenario %q validated", bad.Name)
		}
	}
}

// TestNavigatorWalk checks head-shift and determinism of the walk
// itself, independent of HTTP.
func TestNavigatorWalk(t *testing.T) {
	site, p := testSite(t)
	nav, err := NewNavigator(site, p)
	if err != nil {
		t.Fatalf("NewNavigator: %v", err)
	}
	// Same seed, same walk.
	walk := func(seed int64, shift int) []int {
		rng := rand.New(rand.NewSource(seed))
		var pages []int
		cur, _ := nav.Start(rng, shift)
		pages = append(pages, cur)
		for i := 0; i < 20; i++ {
			next, ok := nav.Next(rng, cur, shift)
			if !ok {
				break
			}
			cur = next
			pages = append(pages, cur)
		}
		return pages
	}
	a, b := walk(5, 0), walk(5, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a, b)
		}
	}
	// Head shift moves session heads off the unshifted entry set: with
	// full head bias, unshifted heads come from the top EntryCount
	// pages, shifted heads from a disjoint window.
	p2 := p
	p2.PopularHeadBias = 1
	nav2, err := NewNavigator(site, p2)
	if err != nil {
		t.Fatalf("NewNavigator: %v", err)
	}
	rng := rand.New(rand.NewSource(9))
	byWeight := make([]int, len(site.Pages))
	for i := range byWeight {
		byWeight[i] = i
	}
	sort.Slice(byWeight, func(a, b int) bool {
		wa, wb := site.Pages[byWeight[a]].Weight, site.Pages[byWeight[b]].Weight
		if wa != wb {
			return wa > wb
		}
		return byWeight[a] < byWeight[b]
	})
	topSet := map[int]bool{}
	for _, idx := range byWeight[:p.EntryCount] {
		topSet[idx] = true
	}
	for i := 0; i < 50; i++ {
		head, _ := nav2.Start(rng, 0)
		if !topSet[head] {
			t.Fatalf("unshifted head %d outside the entry set", head)
		}
		shifted, _ := nav2.Start(rng, p.EntryCount)
		if topSet[shifted] {
			t.Fatalf("shifted head %d still in the unshifted entry set", shifted)
		}
	}
}
