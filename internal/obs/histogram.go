package obs

import (
	"sync/atomic"
	"time"
)

// DefaultLatencyBounds are the shared upper bounds of the latency
// histogram buckets, 1ms to 10s in a rough 1-2-5 progression; the final
// bucket is unbounded. The simulator's latency histogram
// (internal/metrics.Result.Latencies) uses the same table, so offline
// percentiles and live /metrics quantiles are comparable
// bucket-for-bucket.
var DefaultLatencyBounds = []time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// BucketIndex returns the index of the bucket a duration falls into:
// the first bound >= d, or len(bounds) for the overflow bucket.
func BucketIndex(bounds []time.Duration, d time.Duration) int {
	for i, b := range bounds {
		if d <= b {
			return i
		}
	}
	return len(bounds)
}

// QuantileOverCounts returns an upper bound for the q-quantile
// (q in [0,1]) of a distribution given per-bucket counts: counts must
// have len(bounds)+1 entries, the last being the overflow bucket. It
// returns zero with no observations; q at or below 0 selects the first
// non-empty bucket (a lower bound for the minimum) and q at or above 1
// the last. Overflow-bucket quantiles report twice the final bound,
// the conventional "beyond the histogram" estimate.
//
// This is the single quantile implementation, shared by Histogram and
// HistogramSnapshot.
func QuantileOverCounts(bounds []time.Duration, counts []int64, q float64) time.Duration {
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range counts {
		seen += n
		if seen >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return 2 * bounds[len(bounds)-1]
		}
	}
	return 0
}

// Histogram counts durations in fixed buckets with atomic operations
// only: Observe is one linear scan over the bounds plus two atomic
// adds, safe for unsynchronized concurrent use. It renders as a
// Prometheus histogram family (_bucket/_sum/_count) with bounds
// expressed in seconds.
type Histogram struct {
	bounds   []time.Duration // immutable after NewHistogram
	buckets  []atomic.Int64  // len(bounds)+1, last is overflow
	sumNanos atomic.Int64
}

// NewHistogram returns a histogram over bounds, which must be sorted
// ascending; nil selects DefaultLatencyBounds. Registered histograms
// come from Registry.Histogram; NewHistogram is for unregistered use.
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not sorted ascending")
		}
	}
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[BucketIndex(h.bounds, d)].Add(1)
	h.sumNanos.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNanos.Load()) }

// Quantile returns an upper bound for the q-quantile (q in [0,1]); see
// QuantileOverCounts for the edge-case contract.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return QuantileOverCounts(h.bounds, counts, q)
}

// HistogramSnapshot is an immutable copy of a histogram's state at one
// instant, readable (Count, Mean, Quantile) after the histogram moves
// on.
type HistogramSnapshot struct {
	// Bounds aliases the histogram's immutable bucket bounds.
	Bounds []time.Duration
	// Counts has len(Bounds)+1 entries, the last being overflow.
	Counts []int64
	// SumNanos is the summed observed duration in nanoseconds.
	SumNanos int64
}

// Snapshot copies the histogram's current counts and summed duration;
// concurrent Observe calls may land between the reads.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.buckets)),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	s.SumNanos = h.sumNanos.Load()
	return s
}

// Count returns the number of observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var total int64
	for _, n := range s.Counts {
		total += n
	}
	return total
}

// Mean returns the mean observed duration, zero with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / n)
}

// Quantile returns an upper bound for the q-quantile of the snapshot's
// observations; see QuantileOverCounts for the edge cases.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	return QuantileOverCounts(s.Bounds, s.Counts, q)
}
