package quality

import (
	"sync"
	"testing"
	"time"

	"pbppm/internal/obs"
)

// TestScorerMirrorsSimAccounting pins the scorer to the simulator's
// §2.3 accounting: the exact transcript below is a hand-computed
// miniature of what sim.Run would record for the same events.
func TestScorerMirrorsSimAccounting(t *testing.T) {
	s := NewScorer()

	s.Demand(time.Time{}, 1000, Miss)       // demand fetch: transferred+useful
	s.Prefetched(time.Time{}, 400)          // pushed alongside the response
	s.Prefetched(time.Time{}, 600)          // a second push
	s.Demand(time.Time{}, 400, PrefetchHit) // the 400-byte push came true
	s.Demand(time.Time{}, 1000, CacheHit)   // ordinary cache hit: no bytes move
	s.Demand(time.Time{}, 2000, Miss)       // another demand fetch

	got := s.Total()
	want := Snapshot{
		Requests:         4,
		CacheHits:        1,
		PrefetchHits:     1,
		PrefetchedDocs:   2,
		TransferredBytes: 1000 + 400 + 600 + 2000,
		UsefulBytes:      1000 + 400 + 2000,
		PrefetchedBytes:  1000,
	}
	if got != want {
		t.Fatalf("Total() = %+v, want %+v", got, want)
	}

	// The ratios are metrics.Result's formulas.
	if p := got.Precision(); p != 0.5 {
		t.Errorf("precision = %v, want 0.5 (1 hit of 2 prefetched)", p)
	}
	if hr := got.HitRatio(); hr != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5 (2 hits of 4 requests)", hr)
	}
	wantTI := float64(4000)/float64(3400) - 1
	if ti := got.TrafficIncrease(); ti != wantTI {
		t.Errorf("traffic increase = %v, want %v", ti, wantTI)
	}
}

func TestSnapshotAdd(t *testing.T) {
	a := Snapshot{Requests: 2, PrefetchHits: 1, TransferredBytes: 10}
	b := Snapshot{Requests: 3, CacheHits: 2, UsefulBytes: 7}
	sum := a.Add(b)
	if sum.Requests != 5 || sum.PrefetchHits != 1 || sum.CacheHits != 2 ||
		sum.TransferredBytes != 10 || sum.UsefulBytes != 7 {
		t.Fatalf("Add = %+v", sum)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Miss: "miss", CacheHit: "cache_hit", PrefetchHit: "prefetch_hit",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestWindowedScorerRollsOff(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	s := NewWindowedScorer(obs.Window{Span: 5 * time.Minute, Granularity: 10 * time.Second, Clock: clk.Now})
	if !s.Windowed() {
		t.Fatal("windowed scorer reports Windowed() == false")
	}

	s.Demand(clk.Now(), 100, Miss)
	s.Prefetched(clk.Now(), 50)
	clk.Advance(2 * time.Minute)
	s.Demand(clk.Now(), 50, PrefetchHit)

	// Full window still sees everything.
	full := s.Window(0)
	if full.Requests != 2 || full.PrefetchedDocs != 1 || full.PrefetchHits != 1 {
		t.Fatalf("full window = %+v", full)
	}
	// A 30-second window only sees the recent prefetch hit.
	recent := s.Window(30 * time.Second)
	if recent.Requests != 1 || recent.PrefetchHits != 1 || recent.PrefetchedDocs != 0 {
		t.Fatalf("30s window = %+v", recent)
	}
	// The cumulative totals never roll off.
	clk.Advance(10 * time.Minute)
	if got := s.Window(0); got.Requests != 0 {
		t.Fatalf("window after span elapsed = %+v, want empty", got)
	}
	if got := s.Total(); got.Requests != 2 {
		t.Fatalf("cumulative total aged out: %+v", got)
	}

	// A cumulative-only scorer answers Window with its totals.
	c := NewScorer()
	c.Demand(time.Time{}, 10, CacheHit)
	if c.Windowed() {
		t.Fatal("cumulative scorer reports Windowed() == true")
	}
	if got := c.Window(time.Minute); got.Requests != 1 || got.CacheHits != 1 {
		t.Fatalf("cumulative Window = %+v", got)
	}
}

func TestScorerConcurrent(t *testing.T) {
	s := NewWindowedScorer(obs.Window{Span: time.Minute})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Demand(time.Now(), 10, Outcome(i%3))
				s.Prefetched(time.Now(), 5)
				_ = s.Total()
				_ = s.Window(0)
			}
		}()
	}
	wg.Wait()
	got := s.Total()
	if got.Requests != 4000 || got.PrefetchedDocs != 4000 {
		t.Fatalf("concurrent totals = %+v, want 4000 requests and prefetches", got)
	}
}
