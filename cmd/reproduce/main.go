// Command reproduce regenerates the tables and figures of the paper's
// evaluation on the synthetic NASA-like and UCB-CS-like workloads and
// prints them as text tables (the data behind EXPERIMENTS.md).
//
// Beyond the tables it can leave a machine-checkable run artifact
// behind: -bench-out writes a BENCH_*.json report (environment block,
// per-experiment wall time, allocation cost, per-phase timings,
// replay throughput, model tree statistics, and headline metrics) and
// -compare gates the run against a baseline artifact, exiting
// non-zero when a metric regressed beyond tolerance.
//
// Usage:
//
//	reproduce [-exp all|fig2|fig3|table|fig4|fig5|baselines|maintenance|maintenance-cost|predict-bench|ablations]
//	          [-workload both|nasa|ucbcs] [-scale full|small] [-csv dir]
//	          [-bench-out BENCH_run.json] [-compare BENCH_baseline.json]
//	          [-tol-wall F] [-tol-metric F] [-progress N]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"pbppm/internal/benchreport"
	"pbppm/internal/experiments"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/sim"
	"pbppm/internal/tracegen"
)

func main() {
	os.Exit(realMain())
}

// realMain wraps the run so deferred work (the profile stop) executes
// before the process exits.
func realMain() int {
	var (
		exp       = flag.String("exp", "all", "experiment: all, fig2, fig3, table, fig4, fig5, baselines, maintenance, maintenance-cost, predict-bench, or ablations")
		workload  = flag.String("workload", "both", "workload: both, nasa, ucbcs")
		scale     = flag.String("scale", "full", "full = paper scale, small = quick check")
		csvDir    = flag.String("csv", "", "also write each artifact as CSV into this directory")
		benchOut  = flag.String("bench-out", "", "write a BENCH_*.json run artifact to this file")
		compareTo = flag.String("compare", "", "compare this run against a baseline BENCH_*.json and fail on regression")
		tolWall   = flag.Float64("tol-wall", 0.5, "allowed relative wall-time/alloc/throughput change for -compare")
		tolMetric = flag.Float64("tol-metric", 0.05, "allowed relative headline-metric change for -compare")
		progress  = flag.Int("progress", 0, "log replay progress every N events (0 = silent)")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		return 1
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fail(err)
		}
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", err)
		}
	}()

	log := obs.Component(obs.NewLogger(os.Stderr, slog.LevelInfo), "reproduce")
	report := benchreport.New("reproduce", *scale)

	ranAny := false
	for _, name := range []string{"nasa", "ucbcs"} {
		if *workload != "both" && *workload != name {
			continue
		}
		ranAny = true

		var w *experiments.Workload
		buildClock := sim.NewPhaseClock(nil)
		m, err := benchreport.Measure(func() error {
			defer buildClock.Start(sim.PhaseWorkloadBuild)()
			var err error
			w, err = buildWorkload(name, *scale)
			return err
		})
		if err != nil {
			return fail(err)
		}
		report.Add(benchreport.NewRecord("workload", name, m, buildClock, nil, nil))
		fmt.Fprintf(os.Stderr, "reproduce: prepared %s workload: %d records, %d sessions, %d days (%.1fs)\n",
			name, len(w.Trace.Records), len(w.Sessions), w.Days(), m.Wall.Seconds())

		if err := run(w, *exp, *csvDir, *progress, log, report); err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "reproduce: unknown workload %q\n", *workload)
		return 2
	}

	if *benchOut != "" {
		if err := benchreport.WriteFile(*benchOut, report); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "reproduce: benchmark artifact written to %s\n", *benchOut)
	}
	if *compareTo != "" {
		baseline, err := benchreport.ReadFile(*compareTo)
		if err != nil {
			return fail(err)
		}
		cmp := benchreport.Compare(baseline, report,
			benchreport.Tolerances{WallTime: *tolWall, Metric: *tolMetric})
		fmt.Print(cmp)
		if !cmp.OK() {
			fmt.Fprintf(os.Stderr, "reproduce: %d metrics regressed beyond tolerance vs %s\n",
				len(cmp.Regressions()), *compareTo)
			return 3
		}
	}
	return 0
}

func buildWorkload(name, scale string) (*experiments.Workload, error) {
	var p tracegen.Profile
	switch name {
	case "nasa":
		p = tracegen.NASA()
	case "ucbcs":
		p = tracegen.UCBCS()
	}
	if scale == "small" {
		p.Days = 4
		p.SessionsPerDay /= 2
		p.Pages /= 2
		p.Browsers /= 2
		p.CrawlerPagesPerDay = 150
	}
	return experiments.FromProfile(p)
}

// artifact is what every experiment produces: a printable table that
// can also be exported as CSV.
type artifact interface {
	fmt.Stringer
	experiments.CSVWriter
}

func run(w *experiments.Workload, exp, csvDir string, progress int, log *slog.Logger, report *benchreport.Report) error {
	cfg := experiments.SweepConfig{}
	all := exp == "all"

	// runOne executes one experiment under a fresh phase clock and
	// model observer, prints/exports the artifact, and appends the
	// benchmark record. f returns the record name alongside the
	// artifact because ablations only know theirs after running; kind
	// labels progress lines emitted while f is still in flight.
	runOne := func(kind string, f func() (string, artifact, error)) error {
		clock := sim.NewPhaseClock(nil)
		models := map[string]markov.TreeStats{}
		w.Hooks = experiments.Hooks{
			Phases:  clock,
			OnModel: func(m string, st markov.TreeStats) { models[m] = st },
		}
		if progress > 0 {
			w.Hooks.ProgressEvery = progress
			w.Hooks.OnProgress = func(p sim.Progress) {
				log.Info("replay progress",
					"workload", w.Name,
					"experiment", kind,
					"phase", p.Phase,
					"events", p.Events,
					"of", p.TotalEvents,
					"hit_ratio", fmt.Sprintf("%.3f", p.HitRatio),
					"events_per_sec", fmt.Sprintf("%.0f", p.EventsPerSec))
			}
		}

		var (
			name string
			art  artifact
		)
		m, err := benchreport.Measure(func() error {
			var err error
			name, art, err = f()
			return err
		})
		if err != nil {
			return err
		}

		stopReport := clock.Start(sim.PhaseReport)
		fmt.Println(art)
		if csvDir != "" {
			cf, err := os.Create(filepath.Join(csvDir, fmt.Sprintf("%s-%s.csv", w.Name, name)))
			if err != nil {
				return err
			}
			if err := art.WriteCSV(cf); err != nil {
				cf.Close()
				return err
			}
			if err := cf.Close(); err != nil {
				return err
			}
		}
		stopReport()

		var headline map[string]float64
		if h, ok := art.(experiments.Headliner); ok {
			headline = h.Headline()
		}
		report.Add(benchreport.NewRecord(name, w.Name, m, clock, models, headline))
		if progress > 0 {
			log.Info("experiment done", "workload", w.Name, "experiment", name,
				"wall", m.Wall.Round(time.Millisecond).String(), "phases", clock.String())
		}
		return nil
	}

	fixed := func(name string, f func() (artifact, error)) func() (string, artifact, error) {
		return func() (string, artifact, error) {
			art, err := f()
			return name, art, err
		}
	}

	if all || exp == "fig2" {
		if err := runOne("fig2", fixed("fig2", func() (artifact, error) { return experiments.RunFigure2(w, cfg) })); err != nil {
			return err
		}
	}
	if all || exp == "fig3" {
		if err := runOne("fig3", fixed("fig3", func() (artifact, error) { return experiments.RunFigure3(w, cfg) })); err != nil {
			return err
		}
	}
	if all || exp == "table" {
		if err := runOne("table", fixed("table", func() (artifact, error) { return experiments.RunSpaceTable(w, cfg) })); err != nil {
			return err
		}
	}
	if all || exp == "fig4" {
		if err := runOne("fig4", fixed("fig4", func() (artifact, error) { return experiments.RunFigure4(w, cfg) })); err != nil {
			return err
		}
	}
	if all || exp == "fig5" {
		if err := runOne("fig5", fixed("fig5", func() (artifact, error) { return experiments.RunFigure5(w, experiments.Figure5Config{}) })); err != nil {
			return err
		}
	}
	if all || exp == "baselines" {
		if err := runOne("baselines", fixed("baselines", func() (artifact, error) { return experiments.RunBaselines(w) })); err != nil {
			return err
		}
	}
	if all || exp == "maintenance" {
		if err := runOne("maintenance", fixed("maintenance", func() (artifact, error) { return experiments.RunMaintenance(w) })); err != nil {
			return err
		}
	}
	if all || exp == "maintenance-cost" {
		if err := runOne("maintenance-cost", fixed("maintenance-cost", func() (artifact, error) { return experiments.RunMaintenanceCost(w) })); err != nil {
			return err
		}
	}
	if all || exp == "predict-bench" {
		if err := runOne("predict-bench", fixed("predict-bench", func() (artifact, error) { return experiments.RunPredictBench(w) })); err != nil {
			return err
		}
	}
	if all || exp == "ablations" {
		for _, runAbl := range []func(*experiments.Workload) (*experiments.Ablation, error){
			experiments.RunAblationThresholds,
			experiments.RunAblationSpaceOpt,
			experiments.RunAblationHeights,
			experiments.RunAblationLinks,
			experiments.RunAblationCachePolicy,
			experiments.RunAblationBlending,
			experiments.RunAblationOnlineTraining,
		} {
			abl := runAbl
			err := runOne("ablations", func() (string, artifact, error) {
				a, err := abl(w)
				if err != nil {
					return "", nil, err
				}
				return "ablation-" + a.Name, a, nil
			})
			if err != nil {
				return err
			}
		}
	}
	switch exp {
	case "all", "fig2", "fig3", "table", "fig4", "fig5", "baselines", "maintenance", "maintenance-cost", "predict-bench", "ablations":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}
