// Command perfbench is the serving benchmark: it boots the warm PB-PPM
// model prefetchd builds, serves it through the real stack (server,
// cluster, maintainer), drives seeded page views at it from at most
// GOMAXPROCS workers and connections, checks every response, and
// prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run), ending with one JSON line.
//
//	go run . --workload browse --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRuns is how many times a run builds its stack; setup_s is the
// median over them, and the last stack is the one measured.
const setupRuns = 7

// idleRebuilds is how many extra rebuilds the kept stack's maintainer
// runs before traffic starts; with the set-up rebuilds they give the
// unloaded rebuild time.
const idleRebuilds = 9

// maxLagP99 is the schedule lag beyond which an open-loop phase is
// generator-limited: its latencies would measure the generator.
const maxLagP99 = 50 * time.Millisecond

// bench is one run of one workload.
type bench struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	nproc   int
	tr      *tracer // nil in an untraced run
	sm      *siteModel
	st      *stack

	setups, setupRebuilds []time.Duration

	// Written by churn's maintenance goroutine, read after it exits.
	rebuilds, deltas []time.Duration
	rebuildCount     int
	// timeRebuilds is set while in-run rebuild times are recorded.
	timeRebuilds atomic.Bool

	// views is every page view of the run; lat and lag are the
	// latency phase's samples.
	views            views
	lat, lag         dist
	peak, tracedPeak []float64
	quality          qualityPhase
	modelBytes       int // served arena size at the end of the latency phase
	inflightMax      int64
	genLimited       []string
	failures         []string
}

func (b *bench) fail(msg string) { b.failures = append(b.failures, msg) }

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run runs one workload as the command line asks, printing the report
// and the JSON result line to out, and returns the exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: browse, flash-crowd, or churn")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{
		wl:      wl,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		nproc:   runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := b.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	defer b.st.close()
	// Collect the discarded set-ups' garbage before measuring.
	runtime.GC()
	before := takeUsage()
	if b.tr != nil {
		b.tr.on.Store(true)
	}
	if err := wl.run(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	after := takeUsage()
	b.check()

	var metrics []metric
	if b.tr == nil {
		metrics = b.endToEnd()
	} else {
		metrics = b.perLayer(before, after)
		path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, b.seed))
		if err := b.tr.writeSpans(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(out, "spans: %d written to %s (%d dropped)\n", len(b.tr.spans), path, b.tr.spansDropped)
	}
	b.report(out, metrics)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res := result{len(b.failures) == 0, b.views.attempted, b.views.failed, map[string]jvalue{}}
	for _, m := range metrics {
		if m.contract {
			res.Metrics[m.name] = jvalue{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON line that ends a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]jvalue `json:"metrics"`
}

type jvalue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setup builds the site, warm model, and stack setupRuns times, keeping
// the last.
func (b *bench) setup() error {
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		sm, err := buildModel(b.wl.profile())
		if err != nil {
			return err
		}
		st, err := boot(sm, b.wl.stack, b.tr, b.nproc)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start))
		b.setupRebuilds = append(b.setupRebuilds, sm.warmRebuild)
		if b.st != nil {
			b.st.close()
		}
		b.sm, b.st = sm, st
	}
	for i := 0; i < idleRebuilds; i++ {
		start := time.Now()
		b.sm.maint.Rebuild(time.Now())
		b.setupRebuilds = append(b.setupRebuilds, time.Since(start))
	}
	return nil
}

// check runs the output checks every workload shares.
func (b *bench) check() {
	if b.views.failed > 0 {
		b.fail(fmt.Sprintf("%d of %d page views failed; first: %v", b.views.failed, b.views.attempted, b.views.firstErr))
	}
	if err := b.st.check.err(); err != nil {
		b.fail(fmt.Sprintf("%d bad responses; first: %v", b.st.check.bad.Load(), err))
	}
	st := b.st.stats()
	sent := b.st.check.demand.Load() + b.st.check.prefetch.Load()
	if served(st) != sent || st.NotFound != 0 {
		b.fail(fmt.Sprintf("request conservation: server saw %d demand + %d prefetch (%d not found), clients sent %d",
			st.DemandRequests, st.PrefetchRequests, st.NotFound, sent))
	}
	if c := b.st.conns.Load(); c > int64(b.nproc) {
		b.genLimited = append(b.genLimited, fmt.Sprintf("%d connections opened, cap %d", c, b.nproc))
	}
	for _, g := range b.genLimited {
		b.fail("generator-limited: " + g)
	}
}

// usage is a process resource snapshot.
type usage struct {
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func takeUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   m.TotalAlloc,
		gcs:     m.NumGC,
		pauseNs: m.PauseTotalNs,
	}
}
