package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// RegisterBuildInfo exports pbppm_build_info, the conventional
// constant-1 gauge whose labels carry the build identity (Go version,
// VCS revision, OS/arch), so every binary's exposition says what is
// running. Safe on a nil registry.
func RegisterBuildInfo(reg *Registry) {
	if reg == nil {
		return
	}
	revision := "unknown"
	modified := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "-dirty"
				}
			}
		}
	}
	if len(revision) > 12 {
		revision = revision[:12]
	}
	g := reg.Gauge("pbppm_build_info",
		"Build identity of this binary; the constant value 1 carries the labels.",
		Label{Name: "go_version", Value: runtime.Version()},
		Label{Name: "revision", Value: revision + modified},
		Label{Name: "goos", Value: runtime.GOOS},
		Label{Name: "goarch", Value: runtime.GOARCH})
	g.Set(1)
}

// runtimeSampleInterval is the minimum time between runtime/metrics
// reads; scrapes inside the interval reuse the cached sample so a
// scrape storm cannot turn telemetry into load.
const runtimeSampleInterval = time.Second

// runtimeCollector samples runtime/metrics with a cached snapshot.
type runtimeCollector struct {
	mu      sync.Mutex
	last    time.Time
	samples []metrics.Sample
	index   map[string]int
}

func newRuntimeCollector(names []string) *runtimeCollector {
	c := &runtimeCollector{index: make(map[string]int, len(names))}
	for i, n := range names {
		c.samples = append(c.samples, metrics.Sample{Name: n})
		c.index[n] = i
	}
	return c
}

// sample refreshes the snapshot if it is stale and returns the sample
// for name.
func (c *runtimeCollector) sample(name string) metrics.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.last) >= runtimeSampleInterval {
		metrics.Read(c.samples)
		c.last = now
	}
	return c.samples[c.index[name]]
}

// float returns the sample's value as a float64 (uint64 and float64
// kinds; anything else reports 0).
func (c *runtimeCollector) float(name string) float64 {
	s := c.sample(name)
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// histQuantile returns an upper bound for the q-quantile of a
// runtime/metrics Float64Histogram sample, in the sample's unit
// (seconds for the pause and latency series). Buckets may have
// infinite edges; those report the nearest finite edge.
func (c *runtimeCollector) histQuantile(name string, q float64) float64 {
	s := c.sample(name)
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s.Value.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return 0
	}
	var total uint64
	for _, n := range h.Counts {
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
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.Counts {
		seen += n
		if seen >= rank {
			// Counts[i] covers Buckets[i] <= x < Buckets[i+1]; report the
			// upper edge, falling back to the lower when it is +Inf.
			upper := h.Buckets[i+1]
			if isInf(upper) {
				return h.Buckets[i]
			}
			return upper
		}
	}
	return 0
}

func isInf(f float64) bool { return f > 1e308 || f < -1e308 }

// RegisterRuntimeMetrics exports the process runtime telemetry the
// serving binaries share — goroutine count, heap size, GC cycles and
// pause quantiles, scheduler latency quantiles — all computed at
// scrape time from a cached runtime/metrics snapshot. Safe on a nil
// registry; registering twice on the same registry is idempotent.
func RegisterRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	const (
		heapBytes  = "/memory/classes/heap/objects:bytes"
		totalBytes = "/memory/classes/total:bytes"
		gcCycles   = "/gc/cycles/total:gc-cycles"
		gcPauses   = "/gc/pauses:seconds"
		schedLats  = "/sched/latencies:seconds"
		goroutines = "/sched/goroutines:goroutines"
		gomaxprocs = "/sched/gomaxprocs:threads"
		cpuGCTotal = "/cpu/classes/gc/total:cpu-seconds"
	)
	c := newRuntimeCollector([]string{
		heapBytes, totalBytes, gcCycles, gcPauses, schedLats,
		goroutines, gomaxprocs, cpuGCTotal,
	})

	reg.GaugeFunc("pbppm_go_goroutines",
		"Live goroutines.",
		func() float64 { return c.float(goroutines) })
	reg.GaugeFunc("pbppm_go_gomaxprocs",
		"GOMAXPROCS at the last sample.",
		func() float64 { return c.float(gomaxprocs) })
	reg.GaugeFunc("pbppm_go_heap_alloc_bytes",
		"Bytes of live heap objects.",
		func() float64 { return c.float(heapBytes) })
	reg.GaugeFunc("pbppm_go_memory_total_bytes",
		"Total memory mapped by the Go runtime.",
		func() float64 { return c.float(totalBytes) })
	reg.CounterFunc("pbppm_go_gc_cycles_total",
		"Completed GC cycles.",
		func() float64 { return c.float(gcCycles) })
	reg.CounterFunc("pbppm_go_gc_cpu_seconds_total",
		"CPU seconds spent in garbage collection.",
		func() float64 { return c.float(cpuGCTotal) })
	for _, q := range []struct {
		label string
		v     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}} {
		q := q
		reg.GaugeFunc("pbppm_go_gc_pause_seconds",
			"GC stop-the-world pause quantiles since process start.",
			func() float64 { return c.histQuantile(gcPauses, q.v) },
			Label{Name: "q", Value: q.label})
		reg.GaugeFunc("pbppm_go_sched_latency_seconds",
			"Scheduler latency quantiles (runnable-to-running wait) since process start.",
			func() float64 { return c.histQuantile(schedLats, q.v) },
			Label{Name: "q", Value: q.label})
	}
}
