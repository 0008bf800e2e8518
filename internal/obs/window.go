package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Window describes a rolling time window as a ring of fixed-width
// buckets: Span is the longest lookback the ring can answer, and
// Granularity the bucket width (and therefore the resolution at which
// old observations age out). A RollingCounts or RollingHistogram
// built over a Window can report sums or quantiles over any trailing
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

// gran is the bucket width as actually applied: whole seconds, at
// least one.
func (w Window) gran() time.Duration {
	g := w.Granularity
	if g <= 0 {
		g = w.span() / 30
	}
	return max((g+time.Second-1)/time.Second, 1) * time.Second
}

// slots is the ring size: enough complete buckets to cover Span plus
// the partially-filled current bucket.
func (w Window) slots() int {
	return max(int(w.span()/w.gran())+1, 2)
}

// RollingCounts counts events over a rolling Window in a ring of time
// buckets. Each bucket holds its epoch and a fixed-width row of
// counters, one per column, so a writer resolves an event's bucket
// once (Row) and adds each of the event's columns into it, and one
// Sums call reads every column. A write is one atomic load plus one
// atomic add per column; rotating a bucket to a new epoch (once per
// Granularity tick) briefly takes a mutex. Sums may run concurrently
// with writes.
type RollingCounts struct {
	clock func() time.Time
	span  time.Duration
	gran  int64 // bucket width in seconds
	slots int
	cols  int
	mu    sync.Mutex // serializes bucket rotation only
	// buf holds the slots back to back, each its epoch followed by its
	// cols counters, then one spare row that stale writes land in and
	// Sums never reads.
	buf []atomic.Int64
}

// epochUnused marks a bucket that has never been written; it compares
// below any real epoch the Unix clock can produce.
const epochUnused = -1 << 62

// NewRollingCounts returns a ring of cols counters per bucket over w.
func NewRollingCounts(w Window, cols int) *RollingCounts {
	r := &RollingCounts{
		clock: w.Clock,
		span:  w.span(),
		gran:  int64(w.gran() / time.Second),
		slots: w.slots(),
		cols:  cols,
	}
	if r.clock == nil {
		r.clock = time.Now
	}
	r.buf = make([]atomic.Int64, (r.slots+1)*(cols+1))
	for i := 0; i < r.slots; i++ {
		r.bucket(i)[0].Store(epochUnused)
	}
	return r
}

// bucket is slot i's epoch followed by its counters; slot r.slots is
// the spare row.
func (r *RollingCounts) bucket(i int) []atomic.Int64 {
	return r.buf[i*(r.cols+1) : (i+1)*(r.cols+1)]
}

// epoch is t's bucket number on the Unix-seconds clock.
func (r *RollingCounts) epoch(t time.Time) int64 { return t.Unix() / r.gran }

// Row returns the counters of the bucket for time at, which the caller
// reads from the window's clock; add the event's columns into it. This
// is the ring's one rotation routine: a bucket still holding an older
// epoch is zeroed and moved to at's. A write racing the bucket's reuse
// for a newer epoch (a writer descheduled across a full Span) gets the
// spare row, so it is dropped rather than misfiled.
func (r *RollingCounts) Row(at time.Time) []atomic.Int64 {
	e := r.epoch(at)
	i := int(e % int64(r.slots))
	if i < 0 {
		// Epochs before 1970 (zero-time fake clocks) are negative.
		i += r.slots
	}
	row := r.bucket(i)
	if row[0].Load() != e {
		r.mu.Lock()
		switch cur := row[0].Load(); {
		case cur < e:
			// Zero before publishing the epoch so a concurrent Sums
			// never pairs the new epoch with the old counts.
			for c := 1; c < len(row); c++ {
				row[c].Store(0)
			}
			row[0].Store(e)
		case cur > e:
			row = r.bucket(r.slots)
		}
		r.mu.Unlock()
	}
	return row[1:]
}

// Sums returns each column's total over the trailing span (clamped to
// the window's Span; zero or negative selects the full Span). The
// current partially-filled bucket is included, so the effective
// lookback is span rounded up to whole buckets.
func (r *RollingCounts) Sums(span time.Duration) []int64 {
	if span <= 0 || span > r.span {
		span = r.span
	}
	gran := time.Duration(r.gran) * time.Second
	n := min(max(int64((span+gran-1)/gran), 1), int64(r.slots))
	e := r.epoch(r.clock())
	oldest := e - n + 1
	out := make([]int64, r.cols)
	for i := 0; i < r.slots; i++ {
		row := r.bucket(i)
		if ep := row[0].Load(); ep >= oldest && ep <= e {
			for c := range out {
				out[c] += row[1+c].Load()
			}
		}
	}
	return out
}

// RollingHistogram counts durations in fixed buckets over a rolling
// window, the windowed sibling of Histogram: same bounds, same
// quantile math (QuantileOverCounts), but observations age out after
// the window's Span. Its counts are the columns of one RollingCounts
// ring, the last column being overflow.
type RollingHistogram struct {
	bounds []time.Duration
	ring   *RollingCounts
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
	return &RollingHistogram{bounds: bounds, ring: NewRollingCounts(w, len(bounds)+1)}
}

// Observe records one duration at time at, which the caller reads from
// the window's clock.
func (h *RollingHistogram) Observe(at time.Time, d time.Duration) {
	h.ring.Row(at)[BucketIndex(h.bounds, d)].Add(1)
}

// Counts returns the per-bucket counts over the trailing span
// (len(bounds)+1 entries, last is overflow), the raw input to
// QuantileOverCounts.
func (h *RollingHistogram) Counts(span time.Duration) []int64 { return h.ring.Sums(span) }

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
