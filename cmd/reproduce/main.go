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
//	reproduce [-exp all|NAME] [-workload both|nasa|ucbcs] [-scale full|small] [-csv dir]
//	          [-bench-out BENCH_run.json] [-compare BENCH_baseline.json]
//	          [-tol-wall F] [-tol-metric F] [-progress N]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -exp all (the default) runs every experiment; -h lists their names.
// An unknown experiment, workload or scale exits 2 before any workload
// is built; a failed -compare exits 3.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pbppm/internal/benchreport"
	"pbppm/internal/experiments"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/sim"
	"pbppm/internal/tracegen"
)

// experiment is an -exp value that produces one artifact.
type experiment struct {
	name string
	run  func(w *experiments.Workload) (artifact, error)
}

// experimentRuns are the single-artifact experiments, in the order
// -exp all runs them; -exp ablations (and all) then runs every
// ablation.
var experimentRuns = []experiment{
	{"fig2", func(w *experiments.Workload) (artifact, error) {
		return experiments.RunFigure2(w, experiments.SweepConfig{})
	}},
	{"eval", func(w *experiments.Workload) (artifact, error) {
		return experiments.RunEvaluation(w, experiments.SweepConfig{})
	}},
	{"fig5", func(w *experiments.Workload) (artifact, error) {
		return experiments.RunFigure5(w, experiments.Figure5Config{})
	}},
	{"maintenance", func(w *experiments.Workload) (artifact, error) { return experiments.RunMaintenance(w) }},
}

// knownExperiment reports whether exp is a valid -exp value.
func knownExperiment(exp string) bool {
	return exp == "all" || exp == "ablations" ||
		slices.ContainsFunc(experimentRuns, func(e experiment) bool { return e.name == exp })
}

// experimentUsage is the -exp flag's help: every valid value.
func experimentUsage() string {
	names := []string{"all"}
	for _, e := range experimentRuns {
		names = append(names, e.name)
	}
	return "experiment: " + strings.Join(names, ", ") + ", or ablations"
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs the command on args, printing tables to stdout and
// diagnostics to stderr, and returns the exit code; it wraps the run
// so deferred work (the profile stop) executes before the process
// exits.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", experimentUsage())
		workload  = fs.String("workload", "both", "workload: both, nasa, ucbcs")
		scale     = fs.String("scale", "full", "full = paper scale, small = quick check")
		csvDir    = fs.String("csv", "", "also write each artifact as CSV into this directory")
		benchOut  = fs.String("bench-out", "", "write a BENCH_*.json run artifact to this file")
		compareTo = fs.String("compare", "", "compare this run against a baseline BENCH_*.json and fail on regression")
		tolWall   = fs.Float64("tol-wall", 0.5, "allowed relative wall-time/alloc/throughput change for -compare")
		tolMetric = fs.Float64("tol-metric", 0.05, "allowed relative headline-metric change for -compare")
		progress  = fs.Int("progress", 0, "log replay progress every N events (0 = silent)")
	)
	var prof obs.ProfileFlags
	prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(what, value string) int {
		fmt.Fprintf(stderr, "reproduce: unknown %s %q\n", what, value)
		return 2
	}
	switch {
	case !knownExperiment(*exp):
		return usage("experiment", *exp)
	case *workload != "both" && *workload != "nasa" && *workload != "ucbcs":
		return usage("workload", *workload)
	case *scale != "full" && *scale != "small":
		return usage("scale", *scale)
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "reproduce: %v\n", err)
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
			fmt.Fprintf(stderr, "reproduce: %v\n", err)
		}
	}()

	log := obs.Component(obs.NewLogger(stderr, slog.LevelInfo), "reproduce")
	report := benchreport.New("reproduce", *scale)

	for _, name := range []string{"nasa", "ucbcs"} {
		if *workload != "both" && *workload != name {
			continue
		}

		var w *experiments.Workload
		buildClock := sim.NewPhaseClock()
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
		fmt.Fprintf(stderr, "reproduce: prepared %s workload: %d records, %d sessions, %d days (%.1fs)\n",
			name, len(w.Trace.Records), len(w.Sessions), w.Days(), m.Wall.Seconds())

		if err := run(w, *exp, *csvDir, *progress, stdout, log, report); err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
	}

	if *benchOut != "" {
		if err := benchreport.WriteFile(*benchOut, report); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "reproduce: benchmark artifact written to %s\n", *benchOut)
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
			fmt.Fprintf(stderr, "reproduce: %d metrics regressed beyond tolerance vs %s\n",
				len(cmp.Regressions()), *compareTo)
			return 3
		}
	}
	return 0
}

func buildWorkload(name, scale string) (*experiments.Workload, error) {
	p, err := tracegen.ProfileNamed(name)
	if err != nil {
		return nil, err
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

func run(w *experiments.Workload, exp, csvDir string, progress int, stdout io.Writer, log *slog.Logger, report *benchreport.Report) error {
	all := exp == "all"

	// runOne executes one experiment under a fresh phase clock and
	// model observer, prints/exports the artifact, and appends the
	// benchmark record. f returns the record name alongside the
	// artifact because ablations only know theirs after running; kind
	// labels progress lines emitted while f is still in flight.
	runOne := func(kind string, f func() (string, artifact, error)) error {
		clock := sim.NewPhaseClock()
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
		fmt.Fprintln(stdout, art)
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

	for _, e := range experimentRuns {
		if all || exp == e.name {
			if err := runOne(e.name, func() (string, artifact, error) {
				art, err := e.run(w)
				return e.name, art, err
			}); err != nil {
				return err
			}
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
	return nil
}
