package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// metric is one reported number. contract marks the metrics the final
// JSON line carries (the ones BENCHMARK.json lists); the others are
// printed for the reader only, because they exist on some workloads.
type metric struct {
	name, unit string
	value      float64
	contract   bool
	note       string
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd computes the metrics a user of the system sees.
func (b *bench) endToEnd() []metric {
	p50, p99 := b.lat.quantile(0.5), b.lat.quantile(0.99)
	tailQ, _ := tailQuantile(b.lat.n())
	tail, n := b.lat.quantile(tailQ), b.lat.n()
	// Drop the samples, then force a GC with every phase drained and
	// the stack still up, so heap_mb is the system's heap.
	b.lat, b.lag = dist{}, dist{}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	q := b.quality
	views := float64(q.client.Requests)
	rebuilds, rebuildNote := b.rebuilds, "in-run rebuilds under load"
	if len(rebuilds) == 0 {
		rebuilds, rebuildNote = b.setupRebuilds, "set-up rebuilds, no load"
	}
	return []metric{
		{name: "setup_s", unit: "s", value: median(durs(b.setups)), contract: true,
			note: fmt.Sprintf("median of %d set-ups", len(b.setups))},
		{name: "peak_rps", unit: "1/s", value: median(b.peak), contract: true,
			note: fmt.Sprintf("median of %d closed-loop samples", len(b.peak))},
		{name: "p50_ms", unit: "ms", value: ms(p50), note: fmt.Sprintf("n=%d", n)},
		{name: "p99_ms", unit: "ms", value: ms(p99),
			note: fmt.Sprintf("n=%d; highest supported p%s=%.4fms", n, pctName(tailQ), ms(tail))},
		{name: "error_rate", unit: "ratio", value: ratio(float64(b.views.failed), float64(b.views.attempted)),
			note: fmt.Sprintf("%d failed of %d attempted page views", b.views.failed, b.views.attempted)},
		{name: "hit_ratio", unit: "ratio", value: ratio(float64(q.client.CacheHits+q.client.PrefetchHits), views), contract: true,
			note: fmt.Sprintf("of %d page views", q.client.Requests)},
		{name: "prefetch_hit_ratio", unit: "ratio", value: ratio(float64(q.client.PrefetchHits), views), contract: true},
		{name: "traffic_increase", unit: "ratio", value: ratio(float64(q.prefBytes), float64(q.demandBytes)), contract: true,
			note: fmt.Sprintf("%d prefetched over %d demand bytes", q.prefBytes, q.demandBytes)},
		{name: "model_bytes", unit: "bytes", value: float64(b.modelBytes), contract: true},
		{name: "heap_mb", unit: "MiB", value: float64(mem.HeapInuse) / (1 << 20), contract: true},
		{name: "rebuild_p50_ms", unit: "ms", value: 1e3 * median(durs(rebuilds)),
			note: fmt.Sprintf("median of %d %s", len(rebuilds), rebuildNote)},
	}
}

// perLayer computes the traced run's per-layer metrics.
func (b *bench) perLayer(before, after usage) []metric {
	t := b.tr
	st := b.st.stats()
	calls := float64(t.predictCalls.Load())

	// Per-request tables, paired by request id across the hop.
	var serve, rtt, hop dist
	n := t.reqSeq.Load()
	if n >= maxReqs {
		n = maxReqs - 1
	}
	for id := uint64(1); id <= n; id++ {
		s, r := time.Duration(t.serve[id].Load()), time.Duration(t.rtt[id].Load())
		if s > 0 {
			serve.add(s)
		}
		if r > 0 {
			rtt.add(r)
		}
		if s > 0 && r > 0 {
			hop.add(r - s)
		}
	}
	predict, self := t.predictNs.dist(), t.selfNs.dist()

	imbalance := 0.0
	if sd := b.st.shardDemand(); len(sd) > 0 {
		var max, sum int64
		for _, d := range sd {
			sum += d
			if d > max {
				max = d
			}
		}
		imbalance = ratio(float64(max), float64(sum)/float64(len(sd)))
	}

	h := b.quality.hints
	c := b.quality.client
	m := b.sm.maint
	req := float64(served(st))
	overhead := 0.0
	if p := median(b.peak); p > 0 {
		overhead = 1 - median(b.tracedPeak)/p
	}
	out := []metric{
		{name: "core.predict_calls", unit: "count", value: calls, contract: true},
		{name: "core.predict_p50_ns", unit: "ns", value: float64(predict.quantile(0.5)), contract: true,
			note: predict.summary()},
		{name: "core.predict_ctx_len_mean", unit: "urls", value: ratio(float64(t.predictCtxLen.Load()), calls), contract: true},
		{name: "core.predict_empty_share", unit: "ratio", value: ratio(float64(t.predictEmpty.Load()), calls), contract: true},
		{name: "server.serve_p50_us", unit: "us", value: us(serve.quantile(0.5)), contract: true, note: serve.summary()},
		{name: "server.serve_p99_us", unit: "us", value: us(serve.quantile(0.99)), contract: true},
		{name: "server.self_p50_us", unit: "us", value: us(self.quantile(0.5)), contract: true,
			note: self.summary()},
		{name: "server.store_lookups_per_request", unit: "count", value: ratio(float64(t.lookups.Load()), float64(t.handled.Load())), contract: true},
		{name: "server.hints_per_demand", unit: "count", value: ratio(float64(st.HintsIssued), float64(st.DemandRequests)), contract: true},
		{name: "server.sessions_started", unit: "count", value: float64(st.SessionsStarted), contract: true},
		{name: "server.reports_unmatched", unit: "count", value: float64(st.HintReportsUnmatched), contract: true},
		{name: "http.rtt_p50_us", unit: "us", value: us(rtt.quantile(0.5)), contract: true, note: rtt.summary()},
		{name: "http.hop_self_p50_us", unit: "us", value: us(hop.quantile(0.5)), contract: true, note: hop.summary()},
		{name: "http.conns_opened", unit: "count", value: float64(b.st.conns.Load()), contract: true},
		{name: "cluster.imbalance", unit: "ratio", value: imbalance, contract: true},
		{name: "quality.issued", unit: "count", value: float64(h[0]), contract: true},
		{name: "quality.fetched", unit: "count", value: float64(h[1]), contract: true},
		{name: "quality.hit", unit: "count", value: float64(h[2]), contract: true},
		{name: "quality.wasted", unit: "count", value: float64(h[3]), contract: true},
		{name: "quality.precision", unit: "ratio", value: ratio(float64(h[2]), float64(h[1])), contract: true},
		{name: "quality.fetch_share", unit: "ratio", value: ratio(float64(h[1]), float64(h[0])), contract: true},
		{name: "client.cache_hits", unit: "count", value: float64(c.CacheHits), contract: true},
		{name: "client.prefetch_hits", unit: "count", value: float64(c.PrefetchHits), contract: true},
		{name: "client.prefetched", unit: "count", value: float64(c.Prefetched), contract: true},
		{name: "client.prefetch_errors", unit: "count", value: float64(c.PrefetchError), contract: true},
		{name: "client.reports_dropped", unit: "count", value: float64(c.ReportsDropped), contract: true},
		{name: "maintain.observes", unit: "count", value: float64(t.observes.Load()), contract: true},
		{name: "maintain.delta_merges", unit: "count", value: float64(m.DeltaMerges()), contract: true},
		{name: "maintain.rebuilds", unit: "count", value: float64(b.rebuildCount), contract: true},
		{name: "maintain.skipped", unit: "count", value: float64(m.SkippedUpdates()), contract: true},
		{name: "maintain.window_sessions", unit: "count", value: float64(m.WindowSize()), contract: true},
		{name: "maintain.arena_bytes", unit: "bytes", value: float64(arenaBytes(m.Predictor())), contract: true},
		{name: "runtime.cpu_us_per_request", unit: "us", value: ratio(us(after.cpu-before.cpu), req), contract: true},
		{name: "runtime.alloc_bytes_per_request", unit: "bytes", value: ratio(float64(after.alloc-before.alloc), req), contract: true},
		{name: "runtime.gc_cycles", unit: "count", value: float64(after.gcs - before.gcs), contract: true},
		{name: "runtime.gc_pause_ms", unit: "ms", value: float64(after.pauseNs-before.pauseNs) / 1e6, contract: true},
		{name: "gen.lag_p99_ms", unit: "ms", value: ms(b.lag.quantile(0.99)), contract: true, note: b.lag.summary()},
		{name: "gen.inflight_max", unit: "count", value: float64(b.inflightMax), contract: true},
		{name: "trace.overhead_share", unit: "ratio", value: overhead, contract: true,
			note: fmt.Sprintf("closed-loop rps traced %.0f vs untraced %.0f", median(b.tracedPeak), median(b.peak))},
	}
	if b.st.clu != nil {
		out = append(out, metric{name: "cluster.serve_p50_us", unit: "us", value: us(serve.quantile(0.5)),
			note: "the handler seam is the cluster router"})
	}
	if len(b.deltas) > 0 {
		var d dist
		for _, x := range b.deltas {
			d.add(x)
		}
		out = append(out, metric{name: "maintain.delta_p50_ms", unit: "ms", value: ms(d.quantile(0.5)), note: d.summary()})
	}
	return out
}

// report prints every metric by name and unit.
func (b *bench) report(w io.Writer, ms []metric) {
	mode := "untraced: end-to-end metrics"
	if b.tr != nil {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g num_cpu=%d gomaxprocs=%d (%s)\n",
		b.wl.name, b.seed, b.seconds.Seconds(), runtime.NumCPU(), b.nproc, mode)
	fmt.Fprintf(w, "  workload: %s\n", b.wl.why)
	for _, m := range ms {
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(w, line)
	}
}
