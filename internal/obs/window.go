package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Window describes a rolling time window as a ring of fixed-width
// buckets: Span is the longest lookback the ring can answer, and
// Granularity the bucket width (and therefore the resolution at which
// old observations age out). A RollingCounter or RollingHistogram
// built over a Window can report a sum or quantile over any trailing
// span up to Span, so one ring serves both a 5-minute live gauge and a
// 1-hour SLO window.
//
// The zero value selects a 5-minute span at 10-second granularity,
// matching the "is the model degrading right now" horizon the live
// quality gauges need.
type Window struct {
	// Span is the longest queryable lookback; zero selects 5 minutes.
	Span time.Duration
	// Granularity is the bucket width; zero selects Span/30, floored at
	// one second. Granularity is always whole seconds: sub-second
	// values round up, keeping bucket epochs on the Unix-seconds clock
	// (well-defined even for the zero time.Time fake clocks tests use).
	Granularity time.Duration
	// Clock supplies the time reads (sums, counts, quantiles) look back
	// from; nil selects time.Now. Writes carry their own time, so one
	// reading per request can stamp every write it makes. Tests inject
	// fakes.
	Clock func() time.Time
}

func (w Window) span() time.Duration {
	if w.Span <= 0 {
		return 5 * time.Minute
	}
	return w.Span
}

// granSeconds returns the bucket width in whole seconds, at least 1.
func (w Window) granSeconds() int64 {
	g := w.Granularity
	if g <= 0 {
		g = w.span() / 30
	}
	secs := int64((g + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Granularity as actually applied (whole seconds).
func (w Window) gran() time.Duration {
	return time.Duration(w.granSeconds()) * time.Second
}

func (w Window) now() time.Time {
	if w.Clock != nil {
		return w.Clock()
	}
	return time.Now()
}

// epoch is t's bucket number on the Unix-seconds clock.
func (w Window) epoch(t time.Time) int64 {
	return t.Unix() / w.granSeconds()
}

// slots is the ring size: enough complete buckets to cover Span plus
// the partially-filled current bucket.
func (w Window) slots() int {
	n := int(w.span()/w.gran()) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// spanSlots converts a query span into a bucket count, clamped to the
// ring: at least the current bucket, at most every bucket.
func (w Window) spanSlots(q time.Duration) int64 {
	if q <= 0 || q > w.span() {
		q = w.span()
	}
	gran := w.gran()
	n := int64((q + gran - 1) / gran)
	if n < 1 {
		n = 1
	}
	if max := int64(w.slots()); n > max {
		n = max
	}
	return n
}

// ringIndex maps an epoch onto the ring; epochs may be negative (fake
// clocks before 1970), so the remainder is normalized.
func ringIndex(epoch int64, slots int) int {
	i := int(epoch % int64(slots))
	if i < 0 {
		i += slots
	}
	return i
}

// counterSlot is one ring bucket of a RollingCounter.
type counterSlot struct {
	epoch atomic.Int64
	count atomic.Int64
}

// RollingCounter counts events over a rolling window. The hot path is
// one atomic load plus one atomic add; the per-bucket rotation (once
// per Granularity tick) briefly takes a mutex. Sum may run
// concurrently with Add.
type RollingCounter struct {
	w     Window
	mu    sync.Mutex // serializes bucket rotation only
	slots []counterSlot
}

// NewRollingCounter returns a counter over w.
func NewRollingCounter(w Window) *RollingCounter {
	c := &RollingCounter{w: w, slots: make([]counterSlot, w.slots())}
	for i := range c.slots {
		c.slots[i].epoch.Store(epochUnused)
	}
	return c
}

// epochUnused marks a bucket that has never been written; it compares
// below any real epoch the Unix clock can produce.
const epochUnused = -1 << 62

// Inc records one event at time at.
func (c *RollingCounter) Inc(at time.Time) { c.Add(at, 1) }

// Add records n events at time at, which the caller reads from the
// window's clock. An Add racing the bucket's reuse for a newer epoch (a
// writer descheduled across a Granularity tick) is dropped rather than
// misfiled.
func (c *RollingCounter) Add(at time.Time, n int64) {
	e := c.w.epoch(at)
	s := &c.slots[ringIndex(e, len(c.slots))]
	if s.epoch.Load() != e {
		c.mu.Lock()
		switch cur := s.epoch.Load(); {
		case cur < e:
			// Rotate: zero before publishing the epoch so a concurrent
			// Sum never pairs the new epoch with the old count.
			s.count.Store(0)
			s.epoch.Store(e)
		case cur > e:
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
	s.count.Add(n)
}

// Sum returns the event count over the trailing span (clamped to the
// window's Span; zero or negative selects the full Span). The current
// partially-filled bucket is included, so the effective lookback is
// span rounded up to whole buckets.
func (c *RollingCounter) Sum(span time.Duration) int64 {
	e := c.w.epoch(c.w.now())
	oldest := e - c.w.spanSlots(span) + 1
	var total int64
	for i := range c.slots {
		if ep := c.slots[i].epoch.Load(); ep >= oldest && ep <= e {
			total += c.slots[i].count.Load()
		}
	}
	return total
}

// histSlot is one ring bucket of a RollingHistogram.
type histSlot struct {
	epoch  atomic.Int64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
}

// RollingHistogram counts durations in fixed buckets over a rolling
// window, the windowed sibling of Histogram: same bounds, same
// quantile math (QuantileOverCounts), but observations age out after
// the window's Span. Observe is one atomic load plus one atomic add;
// rotation once per Granularity tick takes a mutex.
type RollingHistogram struct {
	w      Window
	bounds []time.Duration
	mu     sync.Mutex
	slots  []histSlot
}

// NewRollingHistogram returns a rolling histogram over w with the
// given bucket bounds (sorted ascending); nil bounds selects
// DefaultLatencyBounds.
func NewRollingHistogram(w Window, bounds []time.Duration) *RollingHistogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not sorted ascending")
		}
	}
	h := &RollingHistogram{w: w, bounds: bounds, slots: make([]histSlot, w.slots())}
	for i := range h.slots {
		h.slots[i].epoch.Store(epochUnused)
		h.slots[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// Observe records one duration at time at, which the caller reads from
// the window's clock.
func (h *RollingHistogram) Observe(at time.Time, d time.Duration) {
	e := h.w.epoch(at)
	s := &h.slots[ringIndex(e, len(h.slots))]
	if s.epoch.Load() != e {
		h.mu.Lock()
		switch cur := s.epoch.Load(); {
		case cur < e:
			for i := range s.counts {
				s.counts[i].Store(0)
			}
			s.epoch.Store(e)
		case cur > e:
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
	}
	s.counts[BucketIndex(h.bounds, d)].Add(1)
}

// Counts returns the per-bucket counts over the trailing span
// (len(bounds)+1 entries, last is overflow), the raw input to
// QuantileOverCounts.
func (h *RollingHistogram) Counts(span time.Duration) []int64 {
	e := h.w.epoch(h.w.now())
	oldest := e - h.w.spanSlots(span) + 1
	out := make([]int64, len(h.bounds)+1)
	for i := range h.slots {
		s := &h.slots[i]
		if ep := s.epoch.Load(); ep >= oldest && ep <= e {
			for b := range s.counts {
				out[b] += s.counts[b].Load()
			}
		}
	}
	return out
}

// Count returns the number of observations in the trailing span.
func (h *RollingHistogram) Count(span time.Duration) int64 {
	var total int64
	for _, n := range h.Counts(span) {
		total += n
	}
	return total
}

// Quantile returns an upper bound for the q-quantile of the trailing
// span's observations; see QuantileOverCounts for the edge cases.
func (h *RollingHistogram) Quantile(span time.Duration, q float64) time.Duration {
	return QuantileOverCounts(h.bounds, h.Counts(span), q)
}

// GoodTotal reports how many observations in the trailing span were at
// or under threshold, and how many there were in total — the latency
// SLI shape (good, total) an SLO engine consumes. The threshold is
// effectively rounded up to the nearest bucket bound (a threshold
// beyond the last bound counts every observation as good).
func (h *RollingHistogram) GoodTotal(span, threshold time.Duration) (good, total int64) {
	counts := h.Counts(span)
	idx := BucketIndex(h.bounds, threshold)
	for i, n := range counts {
		total += n
		if i <= idx {
			good += n
		}
	}
	return good, total
}
