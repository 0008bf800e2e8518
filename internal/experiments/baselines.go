package experiments

import (
	"fmt"
	"strconv"

	"pbppm/internal/core"
	"pbppm/internal/lrs"
	"pbppm/internal/metrics"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
	"pbppm/internal/topn"
)

// ModelTop10 labels the server-initiated Top-10 baseline (§6 related
// work, Markatos & Chronaki).
const ModelTop10 = "Top-10"

// Baselines compares the paper's three models against the context-free
// Top-10 pusher on one train/test split — the contrast that motivates
// popularity-BASED (rather than popularity-only) prefetching.
type Baselines struct {
	Workload string
	Results  []metrics.Result // baseline first, then the models
}

// RunBaselines trains on all but the last day and evaluates the final
// day, like the ablations.
func RunBaselines(w *Workload) (*Baselines, error) {
	sp, err := lastDay(w, "baselines")
	if err != nil {
		return nil, err
	}
	common := sim.Options{Path: w.Path, Grades: sp.rank}
	w.Hooks.apply(&common)
	runs := []sim.NamedRun{}
	add := func(name string, opt sim.Options) {
		runs = append(runs, sim.NamedRun{Name: name, Options: opt})
	}

	o := common
	o.Predictor = topn.New()
	o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	add(ModelTop10, o)

	o = common
	o.Predictor = ppm.New(ppm.Config{})
	o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	add(ModelPPM, o)

	o = common
	o.Predictor = lrs.New(lrs.Config{})
	o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
	add(ModelLRS, o)

	o = common
	o.Predictor = core.New(sp.rank, core.Config{
		RelProbCutoff:  0.01,
		DropSingletons: w.DropSingletons,
	})
	o.MaxPrefetchBytes = sim.PBMaxPrefetchBytes
	add(ModelPB, o)

	results := sim.Compare(sp.train, sp.test, runs)
	w.Hooks.ObserveModels(runs)
	return &Baselines{Workload: w.Name, Results: results}, nil
}

// Result returns the named model's metrics (ModelNone for the
// no-prefetch baseline).
func (b *Baselines) Result(model string) metrics.Result {
	for _, r := range b.Results {
		if r.Model == model {
			return r
		}
	}
	return metrics.Result{}
}

// String renders the comparison.
func (b *Baselines) String() string {
	base := b.Result(ModelNone)
	tb := &metrics.Table{
		Title:   fmt.Sprintf("Related-work baseline — %s: context-free Top-10 vs context models", b.Workload),
		Headers: []string{"model", "hit ratio", "latency red.", "traffic inc.", "nodes"},
	}
	for _, r := range b.Results {
		tb.AddRow(r.Model,
			metrics.Pct(r.HitRatio()),
			metrics.Pct(r.LatencyReductionVs(base)),
			metrics.Pct(r.TrafficIncrease()),
			strconv.Itoa(r.Nodes))
	}
	return tb.String()
}
