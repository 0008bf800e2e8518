package experiments

import (
	"pbppm/internal/markov"
	"pbppm/internal/sim"
)

// Hooks carries optional run instrumentation that every experiment
// threads into its simulator runs: a phase clock for train/simulate
// wall time and event counts, a progress reporter for long replays,
// and a model-statistics observer. The zero value disables everything,
// so experiment code applies hooks unconditionally.
//
// Hooks live on the Workload because every experiment already receives
// one; cmd/reproduce installs a fresh phase clock and model observer
// per experiment so one figure's timings never bleed into another's
// record.
type Hooks struct {
	// Phases receives train/simulate timings and replay event counts
	// (see sim.PhaseClock); nil disables phase timing.
	Phases *sim.PhaseClock
	// OnProgress and ProgressEvery mirror sim.Options: every replay of
	// the experiment reports through the same callback.
	OnProgress    func(sim.Progress)
	ProgressEvery int
	// OnModel receives tree statistics for each trained tree-backed
	// model once per experiment (a sweep's from its last split), keyed
	// by its report name; predictors without a tree (e.g. Top-N) are
	// skipped.
	OnModel func(model string, st markov.TreeStats)
}

// apply copies the hooks into one run's simulator options.
func (h Hooks) apply(o *sim.Options) {
	o.Phases = h.Phases
	o.OnProgress = h.OnProgress
	o.ProgressEvery = h.ProgressEvery
}

// ObserveModel reports one trained predictor's tree statistics to
// OnModel, if both are present.
func (h Hooks) ObserveModel(name string, p markov.Predictor) {
	if h.OnModel == nil || p == nil {
		return
	}
	if st, ok := markov.StatsOf(p); ok {
		h.OnModel(name, st)
	}
}
