package metrics

import (
	"strings"
	"testing"
	"time"

	"pbppm/internal/obs"
)

func TestHitRatio(t *testing.T) {
	r := Result{Requests: 100, CacheHits: 30, PrefetchHits: 20}
	if got := r.Hits(); got != 50 {
		t.Errorf("Hits = %d", got)
	}
	if got := r.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %v", got)
	}
	if got := (Result{}).HitRatio(); got != 0 {
		t.Errorf("empty HitRatio = %v", got)
	}
}

func TestTrafficIncrease(t *testing.T) {
	r := Result{UsefulBytes: 1000, TransferredBytes: 1140}
	if got := r.TrafficIncrease(); got < 0.139 || got > 0.141 {
		t.Errorf("TrafficIncrease = %v, want 0.14", got)
	}
	if got := (Result{}).TrafficIncrease(); got != 0 {
		t.Errorf("empty TrafficIncrease = %v", got)
	}
	noWaste := Result{UsefulBytes: 500, TransferredBytes: 500}
	if got := noWaste.TrafficIncrease(); got != 0 {
		t.Errorf("no-waste TrafficIncrease = %v", got)
	}
}

func TestPopularShare(t *testing.T) {
	r := Result{PrefetchHits: 10, PrefetchHitsPopular: 7}
	if got := r.PopularShareOfPrefetchHits(); got != 0.7 {
		t.Errorf("PopularShare = %v", got)
	}
	if got := (Result{}).PopularShareOfPrefetchHits(); got != 0 {
		t.Errorf("empty PopularShare = %v", got)
	}
}

func TestLatency(t *testing.T) {
	r := Result{Requests: 4, TotalLatency: 2 * time.Second}
	if got := r.MeanLatency(); got != 500*time.Millisecond {
		t.Errorf("MeanLatency = %v", got)
	}
	base := Result{Requests: 4, TotalLatency: 4 * time.Second}
	if got := r.LatencyReductionVs(base); got != 0.5 {
		t.Errorf("LatencyReductionVs = %v", got)
	}
	if got := r.LatencyReductionVs(Result{}); got != 0 {
		t.Errorf("reduction vs empty baseline = %v", got)
	}
	// A run slower than baseline yields a negative reduction.
	slow := Result{Requests: 4, TotalLatency: 5 * time.Second}
	if got := slow.LatencyReductionVs(base); got >= 0 {
		t.Errorf("slower run reduction = %v, want negative", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:   "Demo",
		Headers: []string{"model", "hit ratio", "nodes"},
	}
	tb.AddRow("PB-PPM", "61.0%", "5527")
	tb.AddRow("LRS-PPM", "41.5%", "9715")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "PB-PPM") || !strings.Contains(out, "9715") {
		t.Errorf("cells missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	// Right-aligned numeric column: both rows end at the same offset.
	if len(lines[3]) != len(lines[4]) {
		t.Errorf("rows not aligned:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.615); got != "61.5%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F3(0.12345); got != "0.123" {
		t.Errorf("F3 = %q", got)
	}
}

// TestLatencyHistogram reads Result.Latencies the way the simulator
// fills it: observations go into an obs.Histogram over the live
// server's bounds and the result carries its snapshot.
func TestLatencyHistogram(t *testing.T) {
	h := obs.NewHistogram(nil)
	var r Result
	r.Latencies = h.Snapshot()
	if r.Latencies.Quantile(0.50) != 0 || r.Latencies.Count() != 0 {
		t.Error("empty histogram misbehaves")
	}
	// 90 fast requests, 10 slow.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(800 * time.Millisecond)
	}
	r.Latencies = h.Snapshot()
	if got := r.Latencies.Count(); got != 100 {
		t.Fatalf("Count = %d", got)
	}
	if got := r.Latencies.Quantile(0.50); got != 5*time.Millisecond {
		t.Errorf("p50 = %v, want 5ms bucket bound", got)
	}
	if got := r.Latencies.Quantile(0.95); got != time.Second {
		t.Errorf("p95 = %v, want 1s bucket bound", got)
	}
	if got := r.Latencies.Quantile(2); got != time.Second {
		t.Errorf("q>1 clamp = %v", got)
	}
	// Overflow bucket.
	h.Observe(time.Minute)
	r.Latencies = h.Snapshot()
	if got := r.Latencies.Quantile(1); got != 20*time.Second {
		t.Errorf("overflow quantile = %v", got)
	}
}

func TestPrefetchPrecision(t *testing.T) {
	r := Result{PrefetchedDocs: 10, PrefetchHits: 4}
	if got := r.PrefetchPrecision(); got != 0.4 {
		t.Errorf("precision = %v", got)
	}
	if got := (Result{}).PrefetchPrecision(); got != 0 {
		t.Errorf("empty precision = %v", got)
	}
}
