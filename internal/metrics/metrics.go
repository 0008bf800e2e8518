// Package metrics defines the four performance metrics of §2.3 of the
// paper — hit ratio, latency reduction, storage space in nodes, and
// traffic increment — plus plain-text table rendering for the
// experiment reports.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"pbppm/internal/obs"
)

// Result accumulates the outcome of one simulation run.
type Result struct {
	// Model names the prediction model ("PPM", "LRS-PPM", "PB-PPM",
	// "none" for the no-prefetch baseline).
	Model string

	// Requests is the number of demand page requests in the test phase.
	Requests int64
	// CacheHits counts demand requests served by an ordinarily cached
	// copy (browser or proxy).
	CacheHits int64
	// PrefetchHits counts demand requests served by a prefetched copy.
	PrefetchHits int64
	// PrefetchHitsPopular counts prefetch hits whose document is
	// popular (grade >= 2); Figure 2 (left) reports their share.
	PrefetchHitsPopular int64

	// BrowserHits/ProxyCacheHits/ProxyPrefetchHits break down the hit
	// sources for the proxy experiment (§5: "three sources").
	BrowserHits       int64
	ProxyCacheHits    int64
	ProxyPrefetchHits int64

	// UsefulBytes counts transferred bytes that served demand (miss
	// fetches plus prefetched bytes that were later used).
	UsefulBytes int64
	// TransferredBytes counts all bytes moved over the network,
	// including prefetches that were never used.
	TransferredBytes int64
	// PrefetchedBytes counts bytes moved by prefetching only.
	PrefetchedBytes int64
	// PrefetchedDocs counts documents pushed by prefetching.
	PrefetchedDocs int64

	// TotalLatency is the summed modeled access latency of all demand
	// requests.
	TotalLatency time.Duration
	// Latencies is the per-request latency histogram, for percentile
	// reporting, over the live server's bucket bounds
	// (obs.DefaultLatencyBounds).
	Latencies obs.HistogramSnapshot

	// Nodes is the model's storage requirement; Utilization the
	// fraction of stored paths used by predictions.
	Nodes       int
	Utilization float64
}

// Hits returns all demand hits (cache plus prefetch).
func (r Result) Hits() int64 { return r.CacheHits + r.PrefetchHits }

// HitRatio is hits over demand requests (§2.3).
func (r Result) HitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits()) / float64(r.Requests)
}

// TrafficIncrease is transferred bytes over useful bytes, minus one
// (§2.3). A run with no waste reports zero.
func (r Result) TrafficIncrease() float64 {
	if r.UsefulBytes == 0 {
		return 0
	}
	return float64(r.TransferredBytes)/float64(r.UsefulBytes) - 1
}

// PopularShareOfPrefetchHits is the fraction of prefetch hits that were
// popular documents (Figure 2, left).
func (r Result) PopularShareOfPrefetchHits() float64 {
	if r.PrefetchHits == 0 {
		return 0
	}
	return float64(r.PrefetchHitsPopular) / float64(r.PrefetchHits)
}

// PrefetchPrecision is the fraction of prefetched documents that later
// served a demand request — the accuracy of the pushes themselves.
func (r Result) PrefetchPrecision() float64 {
	if r.PrefetchedDocs == 0 {
		return 0
	}
	return float64(r.PrefetchHits) / float64(r.PrefetchedDocs)
}

// MeanLatency is the average modeled latency per demand request.
func (r Result) MeanLatency() time.Duration {
	if r.Requests == 0 {
		return 0
	}
	return r.TotalLatency / time.Duration(r.Requests)
}

// LatencyReductionVs compares this run against a baseline run (same
// workload, no prefetching) and returns the relative latency reduction
// (§2.3): (baseline - this) / baseline.
func (r Result) LatencyReductionVs(baseline Result) float64 {
	if baseline.TotalLatency <= 0 {
		return 0
	}
	red := float64(baseline.TotalLatency-r.TotalLatency) / float64(baseline.TotalLatency)
	return red
}

// Table renders rows of labeled values as a fixed-width text table.
// Columns are sized to their widest cell; the first column is
// left-aligned, the rest right-aligned.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&sb, "%*s", widths[i], c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Pct formats a ratio as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// F3 formats a float with three decimals.
func F3(v float64) string { return fmt.Sprintf("%.3f", v) }
