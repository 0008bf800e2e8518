// Command prefetchsim runs one trace-driven prefetching simulation: it
// trains a prediction model on the first k days of a trace and replays
// the following day against it, reporting the paper's §2.3 metrics.
//
// Usage:
//
//	prefetchsim [-trace file | -profile nasa|ucbcs]
//	            [-model pb|ppm|3ppm|blend|lrs|topn|none]
//	            [-train-days N] [-threshold P] [-max-prefetch BYTES] [-proxy]
//	            [-save-model model.snap]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -save-model writes the trained model's frozen snapshot, with the
// training window's popularity ranking, as a pbppmSN2 snapshot image;
// inspect it with modelinfo.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/experiments"
	"pbppm/internal/lrs"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
	"pbppm/internal/topn"
	"pbppm/internal/trace"
)

func main() {
	os.Exit(realMain())
}

// realMain returns the exit code so the deferred profile stop runs
// before the process exits.
func realMain() int {
	var (
		traceFile   = flag.String("trace", "", "Common Log Format trace file (overrides -profile)")
		profileName = flag.String("profile", "nasa", "synthetic workload: nasa or ucbcs")
		modelName   = flag.String("model", "pb", "prediction model: pb, ppm, 3ppm, blend, lrs, topn, or none")
		trainDays   = flag.Int("train-days", 0, "training window in days (0 = all but the last day)")
		threshold   = flag.Float64("threshold", 0, "prediction probability threshold (0 = paper's 0.25)")
		maxPrefetch = flag.Int64("max-prefetch", 0, "prefetch size cap in bytes (0 = paper default per model)")
		useProxy    = flag.Bool("proxy", false, "interpose a shared 16 GB proxy cache")
		saveModel   = flag.String("save-model", "", "write the trained model's snapshot image to this file (inspect with modelinfo)")
		progress    = flag.Int("progress", 0, "log replay progress every N events (0 = silent)")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "prefetchsim: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "prefetchsim: %v\n", err)
		}
	}()

	w, err := loadWorkload(*traceFile, *profileName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prefetchsim: %v\n", err)
		return 1
	}

	k := *trainDays
	if k == 0 {
		k = w.Days() - 1
	}
	if k < 1 || k >= w.Days() {
		fmt.Fprintf(os.Stderr, "prefetchsim: train-days %d out of range for a %d-day trace\n", k, w.Days())
		return 2
	}
	train := w.DaySessions(0, k)
	test := w.DaySessions(k, k+1)
	rank := experiments.Ranking(train)

	var pred markov.Predictor
	maxBytes := *maxPrefetch
	switch *modelName {
	case "pb":
		pred = core.New(rank, core.Config{
			Threshold:      *threshold,
			RelProbCutoff:  0.01,
			DropSingletons: w.DropSingletons,
		})
		if maxBytes == 0 {
			maxBytes = sim.PBMaxPrefetchBytes
		}
	case "ppm":
		pred = ppm.New(ppm.Config{Threshold: *threshold})
	case "3ppm":
		pred = ppm.New(ppm.Config{Height: 3, Threshold: *threshold})
	case "blend":
		pred = ppm.New(ppm.Config{Threshold: *threshold, BlendOrders: true})
	case "lrs":
		pred = lrs.New(lrs.Config{Threshold: *threshold})
	case "topn":
		pred = topn.New()
	case "none":
		pred = nil
	default:
		fmt.Fprintf(os.Stderr, "prefetchsim: unknown model %q\n", *modelName)
		return 2
	}
	if maxBytes == 0 {
		maxBytes = sim.DefaultMaxPrefetchBytes
	}

	start := time.Now()
	nodes := 0
	if pred != nil {
		nodes = sim.Train(pred, train)
	}
	trainTime := time.Since(start)

	if *saveModel != "" && pred != nil {
		if err := persistModel(*saveModel, pred, rank); err != nil {
			fmt.Fprintf(os.Stderr, "prefetchsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "prefetchsim: model written to %s\n", *saveModel)
	}

	opt := sim.Options{
		Predictor:        pred,
		MaxPrefetchBytes: maxBytes,
		Path:             w.Path,
		Grades:           rank,
		Sizes:            w.Sizes,
		UseProxy:         *useProxy,
	}
	if *progress > 0 {
		log := obs.Component(obs.NewLogger(os.Stderr, slog.LevelInfo), "prefetchsim")
		opt.ProgressEvery = *progress
		opt.OnProgress = func(p sim.Progress) {
			log.Info("replay progress",
				"events", p.Events,
				"of", p.TotalEvents,
				"hit_ratio", fmt.Sprintf("%.3f", p.HitRatio),
				"prefetch_hits", p.PrefetchHits,
				"events_per_sec", fmt.Sprintf("%.0f", p.EventsPerSec))
		}
	}
	start = time.Now()
	res := sim.Run(test, opt)
	simTime := time.Since(start)

	baseOpt := opt
	baseOpt.Predictor = nil
	base := sim.Run(test, baseOpt)

	fmt.Printf("workload %s: %d train sessions (%d days), %d test sessions (day %d)\n",
		w.Name, len(train), k, len(test), k)
	tb := &metrics.Table{Headers: []string{"metric", "value"}}
	tb.AddRow("model", res.Model)
	tb.AddRow("nodes", fmt.Sprint(nodes))
	tb.AddRow("requests", fmt.Sprint(res.Requests))
	tb.AddRow("hit ratio", metrics.Pct(res.HitRatio()))
	tb.AddRow("  cache hits", fmt.Sprint(res.CacheHits))
	tb.AddRow("  prefetch hits", fmt.Sprint(res.PrefetchHits))
	if *useProxy {
		tb.AddRow("  browser hits", fmt.Sprint(res.BrowserHits))
		tb.AddRow("  proxy cache hits", fmt.Sprint(res.ProxyCacheHits))
		tb.AddRow("  proxy prefetch hits", fmt.Sprint(res.ProxyPrefetchHits))
	}
	tb.AddRow("baseline hit ratio", metrics.Pct(base.HitRatio()))
	tb.AddRow("latency reduction", metrics.Pct(res.LatencyReductionVs(base)))
	tb.AddRow("traffic increase", metrics.Pct(res.TrafficIncrease()))
	tb.AddRow("prefetched docs", fmt.Sprint(res.PrefetchedDocs))
	tb.AddRow("prefetch precision", metrics.Pct(res.PrefetchPrecision()))
	tb.AddRow("popular share of prefetch hits", metrics.Pct(res.PopularShareOfPrefetchHits()))
	tb.AddRow("path utilization", metrics.Pct(res.Utilization))
	tb.AddRow("latency p50/p95",
		fmt.Sprintf("%v / %v", res.Latencies.Quantile(0.50), res.Latencies.Quantile(0.95)))
	tb.AddRow("train time", trainTime.Round(time.Millisecond).String())
	tb.AddRow("replay time", simTime.Round(time.Millisecond).String())
	fmt.Print(tb.String())
	return 0
}

// persistModel writes the trained model's frozen snapshot and its
// training ranking as a snapshot image (version 1) for later
// inspection.
func persistModel(path string, pred markov.Predictor, rank *popularity.Ranking) error {
	frozen, ok := markov.Freeze(pred).(*markov.FrozenTree)
	if !ok {
		return fmt.Errorf("model %s has no snapshot image", pred.Name())
	}
	var img bytes.Buffer
	if err := maintain.EncodeSnapshot(&img, 1, frozen, rank); err != nil {
		return err
	}
	return os.WriteFile(path, img.Bytes(), 0o644)
}

// loadWorkload reads a CLF file or generates the named profile.
func loadWorkload(file, profileName string) (*experiments.Workload, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, skipped, err := trace.ReadCLF(f)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "prefetchsim: skipped %d unparseable lines\n", skipped)
		}
		return experiments.NewWorkload(file, tr)
	}
	switch profileName {
	case "nasa":
		return experiments.NASAWorkload()
	case "ucbcs":
		return experiments.UCBWorkload()
	default:
		return nil, fmt.Errorf("unknown profile %q (want nasa or ucbcs)", profileName)
	}
}
