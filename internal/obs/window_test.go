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

func TestRollingCounterAgesOut(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewRollingCounter(testWindow(clk))

	c.Add(clk.Now(), 5)
	clk.Advance(1 * time.Minute)
	c.Add(clk.Now(), 3)
	if got := c.Sum(0); got != 8 {
		t.Fatalf("full-window sum = %d, want 8", got)
	}
	if got := c.Sum(30 * time.Second); got != 3 {
		t.Fatalf("30s sum = %d, want 3 (only the recent add)", got)
	}

	// Advance past the span: everything ages out.
	clk.Advance(6 * time.Minute)
	if got := c.Sum(0); got != 0 {
		t.Fatalf("sum after span elapsed = %d, want 0", got)
	}

	// The ring reuses old slots without double counting.
	c.Add(clk.Now(), 7)
	if got := c.Sum(0); got != 7 {
		t.Fatalf("sum after reuse = %d, want 7", got)
	}
}

func TestRollingCounterNegativeEpochs(t *testing.T) {
	// A zero-value time.Time sits far before the Unix epoch; the ring
	// must still index correctly (fake clocks in server tests do this).
	clk := &fakeClock{}
	c := NewRollingCounter(testWindow(clk))
	c.Add(clk.Now(), 2)
	clk.Advance(20 * time.Second)
	c.Add(clk.Now(), 3)
	if got := c.Sum(0); got != 5 {
		t.Fatalf("sum with pre-epoch clock = %d, want 5", got)
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

func TestRollingCounterConcurrent(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	c := NewRollingCounter(Window{Span: time.Minute, Granularity: time.Second, Clock: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(clk.Now(), 1)
				_ = c.Sum(0)
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
	if got := c.Sum(0); got < 0 || got > 8000 {
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
