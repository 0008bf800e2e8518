package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// sample supports reporting it.
const minBeyond = 10

// dist is an exact latency distribution: every sample is kept, so
// quantiles are read from the sorted samples instead of being snapped
// to histogram bucket bounds.
type dist struct {
	v      []time.Duration
	sorted bool
}

func (d *dist) add(x time.Duration) {
	d.v = append(d.v, x)
	d.sorted = false
}

func (d *dist) merge(o *dist) {
	d.v = append(d.v, o.v...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.v) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Slice(d.v, func(i, j int) bool { return d.v[i] < d.v[j] })
		d.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile, or 0 for no samples.
func (d *dist) quantile(q float64) time.Duration {
	if len(d.v) == 0 {
		return 0
	}
	d.sort()
	return d.v[rankIndex(len(d.v), q)]
}

// rankIndex is the 0-based nearest-rank index of quantile q among n
// sorted samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supported reports whether n samples hold at least minBeyond samples
// above the q-quantile.
func supported(n int, q float64) bool {
	return n > 0 && n-1-rankIndex(n, q) >= minBeyond
}

// tailQuantiles is the ladder tailQuantile climbs.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// tailQuantile returns the highest quantile on the ladder that has at
// least minBeyond samples beyond it; ok is false when even the median
// is unsupported.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailQuantiles {
		if !supported(n, c) {
			break
		}
		q, ok = c, true
	}
	return q, ok
}

// summary renders the distribution as median, the highest supported
// percentile, and the sample count.
func (d *dist) summary() string {
	q, ok := tailQuantile(d.n())
	if !ok {
		return fmt.Sprintf("n=%d (too few samples for a percentile)", d.n())
	}
	return fmt.Sprintf("p50=%s p%s=%s n=%d", fmtDur(d.quantile(0.5)),
		pctName(q), fmtDur(d.quantile(q)), d.n())
}

// pctName renders 0.999 as "99.9".
func pctName(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1e6)/1e4)
}

func fmtDur(x time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(x)/1e3)
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(x time.Duration) float64 { return float64(x) / 1e6 }
func us(x time.Duration) float64 { return float64(x) / 1e3 }

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
