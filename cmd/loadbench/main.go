// Command loadbench drives open-loop HTTP load against a running
// prefetchd and reports latency under load, error rates, the server's
// /debug/slo verdicts, and — with -find-max — the highest steady
// request rate the server sustains under an SLO gate.
//
// The generator is open-loop: arrivals fire on a fixed schedule
// whether or not earlier requests completed, and every latency is
// measured from the request's *scheduled* arrival time, so a stalling
// server shows up as latency and timeouts instead of silently slowing
// the generator down (coordinated omission). The generator watches its
// own schedule lag (pbppm_loadgen_lag_seconds); -max-lag-p99 turns
// that into an exit-code gate so a saturated load generator is never
// reported as a slow server.
//
// Virtual clients are protocol-coherent: they walk the same synthetic
// site the server was booted with (popular session heads, primary-link
// continuations, hub returns) and follow X-Prefetch hints into a
// browser cache, so the measured latency distribution includes the
// prefetching wins the paper claims.
//
// Usage:
//
//	loadbench -server http://127.0.0.1:8080 [-admin http://127.0.0.1:8081]
//	          [-profile nasa|ucbcs] [-pages N] [-seed N] [-clients N]
//	          [-timeout 5s] [-self-admin addr]
//	          -mode steady|sweep|burst|diurnal
//	          [-rps 50] [-duration 60s] [-slot 10s]
//	          [-start 10 -step 10 -target 100]
//	          [-burst-mult 4 -burst-shift 50 -burst-cold 0.5]
//	          [-diurnal-slots 12] [-cold 0]
//	          [-find-max] [-fm-start 25] [-fm-trial 10s] [-fm-max-rps 0]
//	          [-gate-quantile 0.99] [-gate-latency 250ms]
//	          [-gate-errors 0.01] [-gate-lag 50ms]
//	          [-max-lag-p99 0] [-bench-out BENCH_capacity.json]
//	          [-bench-robust] [-compare baseline.json]
//	          [-tol-wall 0.5] [-tol-metric 0.05] [-workload-name name]
//	          [-cluster N | -cluster-sweep 1,2,4] [-rebalance join|leave]
//	          [-warm-days 2]
//
// Cluster modes boot an in-process consistent-hash sharded cluster
// (internal/cluster) instead of targeting -server: -cluster N drives
// one N-shard cluster, -cluster-sweep runs the scenario against a
// fresh cluster per shard count and records one artifact record each,
// and -rebalance joins or removes a shard halfway through a single
// -cluster run, reporting the sessions remapped and hints orphaned.
//
// Exit codes: 0 ok, 1 run error, 2 bad flags, 3 regression vs the
// -compare baseline, 4 the -max-lag-p99 self-gate tripped, 5 the
// -find-max search was generator-limited before finding a failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pbppm/internal/benchreport"
	"pbppm/internal/cluster"
	"pbppm/internal/loadgen"
	"pbppm/internal/metrics"
	"pbppm/internal/obs"
	"pbppm/internal/tracegen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, drives the selected runs, and returns the exit code
// (see the package comment). Tables go to stdout, diagnostics to
// stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8080", "prefetching server root URL")
		adminURL  = fs.String("admin", "", "server admin root URL; polls /debug/slo at slot boundaries when set")
		profile   = fs.String("profile", "nasa", "site profile the server was booted with: nasa or ucbcs")
		pages     = fs.Int("pages", 0, "override the profile's page count (must match the server's -pages)")
		sessDay   = fs.Int("sessions-per-day", 0, "override the profile's mean sessions per day of warm history (cluster modes)")
		seed      = fs.Int64("seed", 1, "RNG seed for the request sequence (same seed = same sequence)")
		clients   = fs.Int("clients", 100, "warm virtual-client pool size")
		timeout   = fs.Duration("timeout", 5*time.Second, "per-request timeout")
		selfAdmin = fs.String("self-admin", "", "serve the generator's own /metrics on this address; empty disables")

		mode     = fs.String("mode", "steady", "scenario: steady, sweep, burst, or diurnal")
		rps      = fs.Float64("rps", 50, "arrival rate (steady base, burst base, diurnal peak)")
		duration = fs.Duration("duration", 60*time.Second, "total steady duration")
		slotDur  = fs.Duration("slot", 10*time.Second, "reporting slot length")

		sweepStart  = fs.Float64("start", 10, "sweep: first step's rate")
		sweepStep   = fs.Float64("step", 10, "sweep: rate increment per step")
		sweepTarget = fs.Float64("target", 100, "sweep: last step's rate")

		burstMult  = fs.Float64("burst-mult", 4, "burst: peak multiplier over -rps")
		burstShift = fs.Int("burst-shift", 50, "burst: popularity ranks the entry set shifts down during the burst")
		burstCold  = fs.Float64("burst-cold", 0.5, "burst: fraction of burst arrivals from never-seen clients")
		diSlots    = fs.Int("diurnal-slots", 12, "diurnal: slots per compressed day")
		coldShare  = fs.Float64("cold", 0, "fraction of arrivals from never-seen clients (all modes)")

		clusterN     = fs.Int("cluster", 0, "boot an in-process N-shard cluster and drive it instead of -server; 0 targets -server")
		clusterSweep = fs.String("cluster-sweep", "", "comma-separated shard counts (e.g. \"1,2,4\"): run -mode against a fresh cluster per count, one artifact record each")
		rebalance    = fs.String("rebalance", "", "with -cluster: \"join\" or \"leave\" a shard halfway through the run and report the remap cost")
		warmDays     = fs.Int("warm-days", 2, "cluster modes: days of warm-training history for the booted cluster")

		findMax  = fs.Bool("find-max", false, "binary-search the max sustainable RPS instead of running -mode")
		fmStart  = fs.Float64("fm-start", 25, "find-max: starting rate")
		fmTrial  = fs.Duration("fm-trial", 10*time.Second, "find-max: measured duration per trial")
		fmMaxRPS = fs.Float64("fm-max-rps", 0, "find-max: rate cap (0 = unbounded, stops on the lag gate)")

		gateQ   = fs.Float64("gate-quantile", 0.99, "gate: latency/lag quantile to read")
		gateLat = fs.Duration("gate-latency", 250*time.Millisecond, "gate: max on-schedule latency at the quantile")
		gateErr = fs.Float64("gate-errors", 0.01, "gate: max error rate")
		gateLag = fs.Duration("gate-lag", 50*time.Millisecond, "gate: max generator schedule lag at the quantile")

		maxLagP99 = fs.Duration("max-lag-p99", 0, "fail (exit 4) when the run's overall lag p99 exceeds this; 0 disables")

		benchOut    = fs.String("bench-out", "", "write a BENCH_*.json capacity artifact to this file")
		benchRobust = fs.Bool("bench-robust", false, "record only machine-robust metrics (rates, error rate) in the artifact, omitting latency quantiles — for cross-machine CI gates")
		compareTo   = fs.String("compare", "", "compare against a baseline BENCH_*.json and fail (exit 3) on regression")
		tolWall     = fs.Float64("tol-wall", 0.5, "allowed relative wall-time/throughput change for -compare")
		tolMetric   = fs.Float64("tol-metric", 0.05, "allowed relative metric change for -compare")
		workload    = fs.String("workload-name", "", "workload label in the artifact; defaults to the profile name")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "loadbench: "+format+"\n", args...)
	}
	usage := func(format string, args ...any) int {
		logf(format, args...)
		return 2
	}
	fail := func(err error) int {
		logf("%v", err)
		return 1
	}

	var p tracegen.Profile
	switch *profile {
	case "nasa":
		p = tracegen.NASA()
	case "ucbcs":
		p = tracegen.UCBCS()
	default:
		return usage("unknown profile %q", *profile)
	}
	clusterCounts, err := parseClusterCounts(*clusterSweep, *clusterN)
	if err != nil {
		return usage("%v", err)
	}
	switch {
	case *rebalance != "" && *rebalance != "join" && *rebalance != "leave":
		return usage("unknown -rebalance %q: want join or leave", *rebalance)
	case *rebalance != "" && clusterCounts == nil:
		return usage("-rebalance needs -cluster N")
	case *rebalance != "" && (len(clusterCounts) != 1 || *findMax):
		return usage("-rebalance needs a single -cluster N scenario run")
	}

	if *pages > 0 {
		p.Pages = *pages
	}
	if *sessDay > 0 {
		p.SessionsPerDay = *sessDay
	}
	site, err := tracegen.BuildSite(p)
	if err != nil {
		return fail(err)
	}

	r := &runner{
		scenario: func() (loadgen.Scenario, error) {
			var sc loadgen.Scenario
			switch *mode {
			case "steady":
				sc = loadgen.Steady(*rps, *duration, *slotDur)
			case "sweep":
				sc = loadgen.Sweep(*sweepStart, *sweepStep, *sweepTarget, *slotDur)
			case "burst":
				sc = loadgen.Burst(*rps, *burstMult, *slotDur, *burstShift, *burstCold)
			case "diurnal":
				sc = loadgen.Diurnal(*rps, *diSlots, *slotDur)
			default:
				return sc, fmt.Errorf("unknown mode %q", *mode)
			}
			if *coldShare > 0 {
				for i := range sc.Slots {
					if sc.Slots[i].ColdShare == 0 {
						sc.Slots[i].ColdShare = *coldShare
					}
				}
			}
			return sc, nil
		},
		findMax: *findMax,
		fmStart: *fmStart,
		fmTrial: *fmTrial,
		gate: loadgen.Gate{
			Quantile: *gateQ, MaxLatency: *gateLat,
			MaxErrorRate: *gateErr, MaxLag: *gateLag, MaxRPS: *fmMaxRPS,
		},
		robust: *benchRobust,
		stdout: stdout,
		stderr: stderr,
	}

	reg := obs.NewRegistry()
	if *selfAdmin != "" {
		mux := obs.NewAdminMux(reg, nil)
		go func() {
			if err := http.ListenAndServe(*selfAdmin, mux); err != nil {
				logf("self-admin: %v", err)
			}
		}()
	}
	newGen := func(url, admin string, reg *obs.Registry) (*loadgen.Generator, error) {
		return loadgen.New(loadgen.Config{
			ServerURL: url,
			AdminURL:  admin,
			Site:      site,
			Profile:   p,
			Clients:   *clients,
			Seed:      *seed,
			Timeout:   *timeout,
			Obs:       reg,
			Logf:      logf,
		})
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	report := benchreport.New("loadbench", "")
	wname := *workload
	if wname == "" {
		wname = p.Name
	}
	// lag is the worst schedule-lag reading over every run, for the
	// -max-lag-p99 gate.
	var lag time.Duration
	if clusterCounts == nil {
		gen, err := newGen(*serverURL, *adminURL, reg)
		if err != nil {
			return fail(err)
		}
		rec, runLag, code := r.measure(ctx, gen, experimentName(false, *findMax, *mode), wname)
		if code != 0 {
			return code
		}
		lag = runLag
		report.Add(rec)
	}
	for _, n := range clusterCounts {
		h, err := loadgen.BootCluster(loadgen.ClusterConfig{
			Shards:   n,
			Site:     site,
			Profile:  p,
			WarmDays: *warmDays,
			Obs:      obs.NewRegistry(),
			Logf:     logf,
		})
		if err != nil {
			return fail(err)
		}
		gen, err := newGen(h.URL, "", obs.NewRegistry())
		if err != nil {
			h.Close()
			return fail(err)
		}
		var timer *time.Timer
		var rebalanced <-chan cluster.RebalanceReport
		if *rebalance != "" {
			sc, err := r.scenario()
			if err != nil {
				h.Close()
				return fail(err)
			}
			timer, rebalanced = rebalanceHalfway(h.Cluster, *rebalance, sc, logf)
		}
		rec, runLag, code := r.measure(ctx, gen, experimentName(true, *findMax, *mode), fmt.Sprintf("%s-shards%d", wname, n))
		if timer != nil {
			timer.Stop()
		}
		st := h.Cluster.Stats()
		h.Close()
		if code != 0 {
			return code
		}
		lag = max(lag, runLag)
		rec.Metrics["shards"] = float64(n)
		fmt.Fprintf(stdout, "cluster shards=%d: demand %d, hints issued %d, hint hits %d, reports unmatched %d\n",
			n, st.DemandRequests, st.HintsIssued, st.HintHits, st.HintReportsUnmatched)
		select {
		case rep := <-rebalanced:
			rec.Metrics["sessions_remapped"] = float64(rep.SessionsRemapped)
			rec.Metrics["hints_orphaned"] = float64(rep.HintsOrphaned)
			fmt.Fprintf(stdout, "rebalance %s (shard %d, %d shards after): %d sessions remapped, %d hints orphaned\n",
				rep.Kind, rep.Shard, rep.ShardsAfter, rep.SessionsRemapped, rep.HintsOrphaned)
		default:
		}
		report.Add(rec)
	}

	if *benchOut != "" {
		if err := benchreport.WriteFile(*benchOut, report); err != nil {
			return fail(err)
		}
		logf("capacity artifact written to %s", *benchOut)
	}
	if *compareTo != "" {
		baseline, err := benchreport.ReadFile(*compareTo)
		if err != nil {
			return fail(err)
		}
		cmp := benchreport.Compare(baseline, report,
			benchreport.Tolerances{WallTime: *tolWall, Metric: *tolMetric})
		fmt.Fprint(stdout, cmp)
		if !cmp.OK() {
			logf("%d metrics regressed beyond tolerance vs %s", len(cmp.Regressions()), *compareTo)
			return 3
		}
	}
	if *maxLagP99 > 0 && lag > *maxLagP99 {
		logf("schedule lag p99 %v exceeds -max-lag-p99 %v: the generator could not hold the schedule",
			lag, *maxLagP99)
		return 4
	}
	return 0
}

// parseClusterCounts resolves -cluster/-cluster-sweep into the shard
// counts to bench; nil means cluster mode is off.
func parseClusterCounts(sweep string, single int) ([]int, error) {
	if sweep != "" {
		var counts []int
		for _, f := range strings.Split(sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad -cluster-sweep entry %q", f)
			}
			counts = append(counts, n)
		}
		return counts, nil
	}
	if single > 0 {
		return []int{single}, nil
	}
	return nil, nil
}

// experimentName labels a run's artifact record: a find-max search or
// a scenario run, against -server or a booted cluster.
func experimentName(cluster, findMax bool, mode string) string {
	switch {
	case findMax && cluster:
		return "cluster-findmax"
	case findMax:
		return "capacity-findmax"
	case cluster:
		return "cluster-capacity-" + mode
	}
	return "capacity-" + mode
}

// runner carries the flag state every measured run shares.
type runner struct {
	scenario func() (loadgen.Scenario, error)
	findMax  bool
	fmStart  float64
	fmTrial  time.Duration
	gate     loadgen.Gate
	robust   bool
	stdout   io.Writer
	stderr   io.Writer
}

// measure drives one scenario run, or with -find-max one capacity
// search, against gen, prints its table, and builds its artifact
// record. lag is the run's schedule-lag reading for the -max-lag-p99
// gate: the scenario's lag p99, or a search's worst per-trial p999. A
// nonzero code ends loadbench: 1 when the run failed, 5 when the search
// was generator-limited.
func (r *runner) measure(ctx context.Context, gen *loadgen.Generator, experiment, workload string) (rec benchreport.Record, lag time.Duration, code int) {
	var (
		res *loadgen.Result
		fm  *loadgen.FindMaxResult
	)
	m, err := benchreport.Measure(func() error {
		var err error
		if r.findMax {
			fm, err = gen.FindMax(ctx, r.fmStart, r.fmTrial, r.gate)
			return err
		}
		sc, err := r.scenario()
		if err != nil {
			return err
		}
		res, err = gen.Run(ctx, sc)
		return err
	})
	if err != nil {
		fmt.Fprintf(r.stderr, "loadbench: %v\n", err)
		return rec, 0, 1
	}

	rec = benchreport.Record{
		Experiment:  experiment,
		Workload:    workload,
		WallSeconds: m.Wall.Seconds(),
		AllocBytes:  m.AllocBytes,
		Metrics:     map[string]float64{},
	}
	if fm != nil {
		printFindMax(r.stdout, fm)
		rec.Metrics["max_sustainable_rps"] = fm.MaxSustainableRPS
		for _, t := range fm.Trials {
			lag = max(lag, t.Result.Lag.Quantile(0.999))
		}
		if fm.GeneratorLimited {
			fmt.Fprintln(r.stderr, "loadbench: search was GENERATOR-LIMITED: the reported capacity is a lower bound")
			return rec, lag, 5
		}
		return rec, lag, 0
	}
	printRun(r.stdout, res)
	latency := res.Latency()
	lag = res.Lag().Quantile(0.99)
	rec.Events = res.Completed()
	if m.Wall > 0 {
		rec.EventsPerSec = float64(res.Completed()) / m.Wall.Seconds()
	}
	rec.Metrics["achieved_rps"] = res.AchievedRPS()
	rec.Metrics["error_rate"] = res.ErrorRate()
	if !r.robust {
		rec.Metrics["latency_p50_seconds"] = latency.Quantile(0.50).Seconds()
		rec.Metrics["latency_p99_seconds"] = latency.Quantile(0.99).Seconds()
		rec.Metrics["latency_p999_seconds"] = latency.Quantile(0.999).Seconds()
		rec.Metrics["lag_p99_seconds"] = lag.Seconds()
	}
	return rec, lag, 0
}

// rebalanceHalfway joins ("join") or removes ("leave") one shard of
// clu halfway through sc and delivers the cost on the returned channel;
// a failed change is logged and delivers nothing.
func rebalanceHalfway(clu *cluster.Cluster, kind string, sc loadgen.Scenario, logf func(string, ...any)) (*time.Timer, <-chan cluster.RebalanceReport) {
	var total time.Duration
	for _, s := range sc.Slots {
		total += s.Duration
	}
	done := make(chan cluster.RebalanceReport, 1)
	return time.AfterFunc(total/2, func() {
		var rep cluster.RebalanceReport
		var err error
		if kind == "join" {
			_, rep, err = clu.AddShard()
		} else {
			ids := clu.ShardIDs()
			rep, err = clu.RemoveShard(ids[len(ids)-1])
		}
		if err != nil {
			logf("rebalance %s failed: %v", kind, err)
			return
		}
		done <- rep
	}), done
}

// printRun renders the per-slot table: the latency staircase a sweep
// produces is the capacity story at a glance.
func printRun(w io.Writer, res *loadgen.Result) {
	tb := &metrics.Table{
		Title: fmt.Sprintf("Open-loop load: %s scenario", res.Scenario),
		Headers: []string{"slot", "target", "achieved", "disp", "ok", "err",
			"cache+pf", "p50", "p99", "p999", "lag p99", "slo"},
	}
	for _, s := range res.Slots {
		slo := "-"
		if s.SLO != nil {
			slo = s.SLO.State
		}
		tb.AddRow(s.Slot.Label,
			fmt.Sprintf("%.4g", s.Slot.RPS),
			fmt.Sprintf("%.4g", s.AchievedRPS()),
			fmt.Sprintf("%d", s.Dispatched),
			fmt.Sprintf("%d", s.Completed),
			fmt.Sprintf("%d", s.Errors()),
			fmt.Sprintf("%d", s.CacheHits+s.PrefetchHits),
			fmtDur(s.Latency.Quantile(0.50)),
			fmtDur(s.Latency.Quantile(0.99)),
			fmtDur(s.Latency.Quantile(0.999)),
			fmtDur(s.Lag.Quantile(0.99)),
			slo)
	}
	fmt.Fprint(w, tb)
	fmt.Fprintf(w, "overall: %.4g rps achieved, %d/%d ok, error rate %.4f, latency p99 %v, lag p99 %v\n",
		res.AchievedRPS(), res.Completed(), res.Dispatched(), res.ErrorRate(),
		fmtDurD(res.Latency().Quantile(0.99)), fmtDurD(res.Lag().Quantile(0.99)))
}

// printFindMax renders the trial ladder and the headline capacity.
func printFindMax(w io.Writer, fm *loadgen.FindMaxResult) {
	tb := &metrics.Table{
		Title:   "Max-sustainable-RPS search",
		Headers: []string{"trial", "rps", "verdict", "achieved", "err rate", "p99", "reason"},
	}
	for i, t := range fm.Trials {
		verdict := "FAIL"
		if t.Pass {
			verdict = "pass"
		}
		tb.AddRow(fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4g", t.RPS),
			verdict,
			fmt.Sprintf("%.4g", t.Result.AchievedRPS()),
			fmt.Sprintf("%.4f", t.Result.ErrorRate()),
			fmtDur(t.Result.Latency.Quantile(0.99)),
			t.Reason)
	}
	fmt.Fprint(w, tb)
	note := ""
	if fm.CeilingReached {
		note = " (search ceiling: true capacity is at least this)"
	}
	if fm.GeneratorLimited {
		note = " (generator-limited: true capacity is at least this)"
	}
	fmt.Fprintf(w, "max_sustainable_rps: %.4g%s\n", fm.MaxSustainableRPS, note)
}

func fmtDur(d time.Duration) string { return fmtDurD(d).String() }
func fmtDurD(d time.Duration) time.Duration {
	return d.Round(10 * time.Microsecond)
}
