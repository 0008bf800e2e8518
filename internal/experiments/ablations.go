package experiments

import (
	"fmt"
	"strconv"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
)

// variant is one row of an ablation: its label, the model it trains
// from the training window's ranking, and the simulator options it
// sets beyond the workload's (prefetch size cap, cache policy, online
// training).
type variant struct {
	label string
	model maintain.Factory
	opt   sim.Options
}

// pb returns the factory of a PB-PPM variant under cfg.
func pb(cfg core.Config) maintain.Factory {
	return func(rank *popularity.Ranking) markov.Predictor { return core.New(rank, cfg) }
}

// paperPB is the factory of the PB-PPM every figure evaluates: the
// paper's 1% relative-probability cut, and the workload's choice of the
// absolute-count cut.
func paperPB(w *Workload) maintain.Factory {
	return pb(core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons})
}

// runAblation evaluates each variant on the last-day split: it trains
// the variant's model on every day but the last and replays the last
// day under the variant's options (see Ablation.add).
func runAblation(w *Workload, name string, variants []variant) (*Ablation, error) {
	sp, err := lastDay(w, "ablation")
	if err != nil {
		return nil, err
	}
	a := &Ablation{Name: name, Workload: w.Name}
	for _, v := range variants {
		model := v.model(sp.rank)
		w.Hooks.Phases.Time(sim.PhaseTrain, func() { sim.Train(model, sp.train) })
		a.add(w, sp, v.label, model, v.opt)
	}
	return a, nil
}

// add replays sp's test day twice under opt, once with the trained
// model and once without prefetching, which the latency reduction is
// measured against, and appends the row.
func (a *Ablation) add(w *Workload, sp split, label string, model markov.Predictor, opt sim.Options) {
	opt.Predictor = model
	opt.Path = w.Path
	opt.Grades = sp.rank
	opt.Sizes = w.Sizes
	w.Hooks.apply(&opt)
	res := sim.Run(sp.test, opt)
	opt.Predictor = nil
	base := sim.Run(sp.test, opt)
	a.Rows = append(a.Rows, AblationRow{
		Label:            label,
		Result:           res,
		LatencyReduction: res.LatencyReductionVs(base),
	})
}

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Label            string
	Result           metrics.Result
	LatencyReduction float64
}

// Ablation is a labeled set of PB-PPM variants on one workload.
type Ablation struct {
	Name     string
	Workload string
	Rows     []AblationRow
}

// String renders the ablation as a table.
func (a *Ablation) String() string {
	tb := &metrics.Table{
		Title:   fmt.Sprintf("Ablation %s — %s", a.Name, a.Workload),
		Headers: []string{"variant", "hit ratio", "latency red.", "traffic inc.", "precision", "nodes"},
	}
	for _, r := range a.Rows {
		tb.AddRow(r.Label,
			metrics.Pct(r.Result.HitRatio()),
			metrics.Pct(r.LatencyReduction),
			metrics.Pct(r.Result.TrafficIncrease()),
			metrics.Pct(r.Result.PrefetchPrecision()),
			strconv.Itoa(r.Result.Nodes))
	}
	return tb.String()
}

// RunAblationThresholds sweeps PB-PPM's two prefetch thresholds: the
// next-access probability and the maximum prefetched-document size,
// quantifying the hit-ratio/traffic trade-off §4.1 and §5 discuss.
func RunAblationThresholds(w *Workload) (*Ablation, error) {
	var vs []variant
	for _, prob := range []float64{0.10, 0.25, 0.40} {
		for _, size := range []int64{4 * 1024, 10 * 1024, 30 * 1024} {
			vs = append(vs, variant{
				label: fmt.Sprintf("p>=%.2f size<=%dKB", prob, size/1024),
				model: pb(core.Config{Threshold: prob, RelProbCutoff: 0.01, DropSingletons: w.DropSingletons}),
				opt:   sim.Options{MaxPrefetchBytes: size},
			})
		}
	}
	return runAblation(w, "thresholds", vs)
}

// pbOptions are the options of a PB-PPM variant that varies the model
// only: the paper's 30 KB prefetch size cap.
var pbOptions = sim.Options{MaxPrefetchBytes: sim.PBMaxPrefetchBytes}

// RunAblationSpaceOpt compares PB-PPM with no space optimization, with
// the relative-access-probability cut alone, and with both
// optimizations (§3.4's two alternatives).
func RunAblationSpaceOpt(w *Workload) (*Ablation, error) {
	return runAblation(w, "space-optimization", []variant{
		{"no optimization", pb(core.Config{}), pbOptions},
		{"rel-prob 1% cut", pb(core.Config{RelProbCutoff: 0.01}), pbOptions},
		{"rel-prob 5% cut", pb(core.Config{RelProbCutoff: 0.05}), pbOptions},
		{"rel-prob 10% cut", pb(core.Config{RelProbCutoff: 0.10}), pbOptions},
		{"1% cut + drop singletons", pb(core.Config{RelProbCutoff: 0.01, DropSingletons: true}), pbOptions},
	})
}

// RunAblationHeights sweeps the grade→height mapping, testing the
// paper's claim that popularity-proportional heights beat flat ones.
func RunAblationHeights(w *Workload) (*Ablation, error) {
	heights := func(h [4]int) maintain.Factory {
		return pb(core.Config{Heights: h, RelProbCutoff: 0.01, DropSingletons: w.DropSingletons})
	}
	return runAblation(w, "grade-heights", []variant{
		{"paper 1/3/5/7", heights([4]int{1, 3, 5, 7}), pbOptions},
		{"flat 3/3/3/3", heights([4]int{3, 3, 3, 3}), pbOptions},
		{"flat 7/7/7/7", heights([4]int{7, 7, 7, 7}), pbOptions},
		{"minimal 1/1/1/1", heights([4]int{1, 1, 1, 1}), pbOptions},
		{"steep 1/2/4/9", heights([4]int{1, 2, 4, 9}), pbOptions},
	})
}

// RunAblationLinks isolates rule 3: PB-PPM with and without the
// duplicated popular-node links.
func RunAblationLinks(w *Workload) (*Ablation, error) {
	return runAblation(w, "popular-links", []variant{
		{"with links (rule 3)", paperPB(w), pbOptions},
		{"without links", pb(core.Config{DisableLinks: true, RelProbCutoff: 0.01, DropSingletons: w.DropSingletons}), pbOptions},
	})
}

// RunAblationCachePolicy compares LRU (the paper's §2.2 policy) with
// popularity-aware GDSF (its reference [16]) for the browser caches
// under PB-PPM prefetching.
func RunAblationCachePolicy(w *Workload) (*Ablation, error) {
	model := paperPB(w)
	return runAblation(w, "cache-policy", []variant{
		{"LRU (paper)", model, sim.Options{MaxPrefetchBytes: sim.PBMaxPrefetchBytes, CachePolicy: sim.PolicyLRU}},
		{"GDSF (popularity-aware)", model, sim.Options{MaxPrefetchBytes: sim.PBMaxPrefetchBytes, CachePolicy: sim.PolicyGDSF}},
	})
}

// RunAblationBlending compares the paper's longest-match prediction
// with the variable-order blended extension (the "high orders or
// variable orders of Markov models" direction the related work leaves
// open), on the standard model. Blending changes how a snapshot reads
// its arena, not the arena, so one trained and frozen model serves both
// rows.
func RunAblationBlending(w *Workload) (*Ablation, error) {
	sp, err := lastDay(w, "ablation")
	if err != nil {
		return nil, err
	}
	std := ppm.New(ppm.Config{})
	w.Hooks.Phases.Time(sim.PhaseTrain, func() { sim.Train(std, sp.train) })
	longest := std.Freeze().(*markov.FrozenTree)
	blended := longest.Params()
	blended.Blend = true
	opt := sim.Options{MaxPrefetchBytes: sim.DefaultMaxPrefetchBytes}
	a := &Ablation{Name: "order-blending", Workload: w.Name}
	a.add(w, sp, "longest match (paper)", longest, opt)
	a.add(w, sp, "blended orders", markov.NewFrozenTree(longest.Arena(), blended), opt)
	return a, nil
}

// RunAblationOnlineTraining compares the paper's train-then-freeze
// deployment with a model that also keeps learning from the test day's
// completed sessions (sim.Options.OnlineTraining).
func RunAblationOnlineTraining(w *Workload) (*Ablation, error) {
	model := paperPB(w)
	return runAblation(w, "online-training", []variant{
		{"frozen after training (paper)", model, pbOptions},
		{"online updates during test day", model, sim.Options{MaxPrefetchBytes: sim.PBMaxPrefetchBytes, OnlineTraining: true}},
	})
}
