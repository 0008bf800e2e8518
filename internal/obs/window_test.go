package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for rolling-window tests.
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

func testWindow(clk *fakeClock) Window {
	return Window{Span: 5 * time.Minute, Granularity: 10 * time.Second, Clock: clk.Now}
}

// add writes n into column col of at's bucket.
func add(r *RollingCounts, at time.Time, col int, n int64) { r.Row(at)[col].Add(n) }

func TestRollingCountsAgesOut(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewRollingCounts(testWindow(clk), 1)

	add(c, clk.Now(), 0, 5)
	clk.Advance(1 * time.Minute)
	add(c, clk.Now(), 0, 3)
	if got := c.Sums(0)[0]; got != 8 {
		t.Fatalf("full-window sum = %d, want 8", got)
	}
	if got := c.Sums(30 * time.Second)[0]; got != 3 {
		t.Fatalf("30s sum = %d, want 3 (only the recent add)", got)
	}

	// Advance past the span: everything ages out.
	clk.Advance(6 * time.Minute)
	if got := c.Sums(0)[0]; got != 0 {
		t.Fatalf("sum after span elapsed = %d, want 0", got)
	}

	// The ring reuses old slots without double counting.
	add(c, clk.Now(), 0, 7)
	if got := c.Sums(0)[0]; got != 7 {
		t.Fatalf("sum after reuse = %d, want 7", got)
	}
}

func TestRollingCountsNegativeEpochs(t *testing.T) {
	// A zero-value time.Time sits far before the Unix epoch; the ring
	// must still index correctly (fake clocks in server tests do this).
	clk := &fakeClock{}
	c := NewRollingCounts(testWindow(clk), 1)
	add(c, clk.Now(), 0, 2)
	clk.Advance(20 * time.Second)
	add(c, clk.Now(), 0, 3)
	if got := c.Sums(0)[0]; got != 5 {
		t.Fatalf("sum with pre-epoch clock = %d, want 5", got)
	}
}

// TestRollingCountsColumns checks that the columns of one bucket are
// independent counters that age out together.
func TestRollingCountsColumns(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewRollingCounts(testWindow(clk), 3)

	row := c.Row(clk.Now())
	row[0].Add(1)
	row[2].Add(40)
	clk.Advance(time.Minute)
	add(c, clk.Now(), 0, 2)
	if got := c.Sums(0); got[0] != 3 || got[1] != 0 || got[2] != 40 {
		t.Fatalf("full-window sums = %v, want [3 0 40]", got)
	}
	if got := c.Sums(30 * time.Second); got[0] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("30s sums = %v, want [2 0 0]", got)
	}

	// The first bucket leaves the window with both of its columns.
	clk.Advance(4 * time.Minute)
	if got := c.Sums(0); got[0] != 2 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("sums once the first bucket aged out = %v, want [2 0 0]", got)
	}
	// Reusing its slot starts both columns from zero.
	clk.Advance(10 * time.Second)
	add(c, clk.Now(), 2, 5)
	if got := c.Sums(0); got[0] != 2 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("sums after the slot's reuse = %v, want [2 0 5]", got)
	}
}

// TestRollingCountsStaleWriter pins the rotation's stale-write rule: a
// write stamped with an epoch older than the one its slot already
// holds (a writer descheduled across a full Span) is dropped. It must
// neither reset the newer bucket nor show up in any later Sums.
func TestRollingCountsStaleWriter(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	w := testWindow(clk)
	c := NewRollingCounts(w, 2)
	stale := clk.Now()

	// Epoch e + slots maps to the same slot as e.
	clk.Advance(time.Duration(w.slots()) * w.gran())
	row := c.Row(clk.Now())
	row[0].Add(1)
	row[1].Add(10)

	row = c.Row(stale)
	row[0].Add(100)
	row[1].Add(1000)

	for i := 0; i <= w.slots(); i++ {
		want := []int64{1, 10}
		if i >= w.slots()-1 {
			want = []int64{0, 0} // the newer write has aged out too
		}
		if got := c.Sums(0); got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("sums %v after the stale write, want %v", got, want)
		}
		clk.Advance(w.gran())
	}
}

func TestRollingHistogramQuantilesAndAging(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	h := NewRollingHistogram(testWindow(clk), nil)

	// 90 fast observations, then later 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(clk.Now(), 2*time.Millisecond)
	}
	clk.Advance(2 * time.Minute)
	for i := 0; i < 10; i++ {
		h.Observe(clk.Now(), 1*time.Second)
	}

	if got := h.Count(0); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Quantile(0, 0.5); got != 2*time.Millisecond {
		t.Fatalf("p50 = %v, want 2ms", got)
	}
	if got := h.Quantile(0, 0.99); got != 1*time.Second {
		t.Fatalf("p99 = %v, want 1s", got)
	}
	// A 30s window only sees the slow tail.
	if got := h.Quantile(30*time.Second, 0.5); got != 1*time.Second {
		t.Fatalf("30s p50 = %v, want 1s", got)
	}

	good, total := h.GoodTotal(0, 100*time.Millisecond)
	if good != 90 || total != 100 {
		t.Fatalf("GoodTotal(100ms) = (%d, %d), want (90, 100)", good, total)
	}

	// Aging: move past the span, nothing remains.
	clk.Advance(10 * time.Minute)
	if got := h.Count(0); got != 0 {
		t.Fatalf("count after span elapsed = %d, want 0", got)
	}
	if got := h.Quantile(0, 0.99); got != 0 {
		t.Fatalf("quantile of empty window = %v, want 0", got)
	}
}

func TestRollingCountsConcurrent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewRollingCounts(Window{Span: time.Minute, Granularity: time.Second, Clock: clk.Now}, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				add(c, clk.Now(), 0, 1)
				_ = c.Sums(0)
			}
		}()
	}
	// One goroutine advances the fake clock while writers run; rotation
	// may drop boundary-racing adds but must never corrupt the ring.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.Advance(time.Second)
		}
	}()
	wg.Wait()
	if got := c.Sums(0)[0]; got < 0 || got > 8000 {
		t.Fatalf("concurrent sum = %d, want within [0, 8000]", got)
	}
}

func TestWindowDefaults(t *testing.T) {
	var w Window
	if got := w.span(); got != 5*time.Minute {
		t.Fatalf("default span = %v, want 5m", got)
	}
	if got := w.gran(); got != 10*time.Second {
		t.Fatalf("default granularity = %v, want 10s", got)
	}
	if got := w.slots(); got != 31 {
		t.Fatalf("default slots = %d, want 31", got)
	}
	// Sub-second granularity rounds up to a whole second.
	w = Window{Span: 10 * time.Second, Granularity: 100 * time.Millisecond}
	if got := w.gran(); got != time.Second {
		t.Fatalf("sub-second granularity = %v, want 1s floor", got)
	}
}
