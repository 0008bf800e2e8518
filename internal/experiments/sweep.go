package experiments

import (
	"fmt"

	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
	"pbppm/internal/topn"
)

// Model names used across the experiment tables.
const (
	ModelNone = "none"
	ModelPPM  = "PPM"   // standard model, unbounded height (§4.1)
	Model3PPM = "3-PPM" // standard model, height 3 (§3.3 observations)
	ModelLRS  = "LRS-PPM"
	ModelPB   = "PB-PPM"
	// ModelTop10 is the server-initiated Top-10 pusher (§6 related
	// work, Markatos & Chronaki): context-free popularity prefetching.
	ModelTop10 = "Top-10"
)

// DayResult holds every model's metrics for one training-window size.
type DayResult struct {
	// TrainDays is the number of day files used to build the models;
	// the models are evaluated on the following day.
	TrainDays int
	// Results maps model name (including ModelNone for the no-prefetch
	// baseline) to its metrics.
	Results map[string]metrics.Result
}

// SweepConfig controls the day sweep shared by Figures 2–4 and Tables
// 1–2.
type SweepConfig struct {
	// MaxTrainDays sweeps k = 1..MaxTrainDays training days; each k is
	// evaluated on day k (zero-based day index k). Zero selects
	// workload days - 1.
	MaxTrainDays int
	// Observation selects Figure 2's observation sweep (§3.3–3.4): the
	// height-3 standard model takes the unbounded one's place, and every
	// click is visible to the server (clients revalidate cached copies)
	// so the models' trees see full surfing paths.
	Observation bool
}

// Sweep runs the client–server comparison for every training-window
// size: the standard PPM (unbounded, or 3-PPM for the observation
// sweep), LRS-PPM and PB-PPM (with the paper's thresholds: 10 KB
// prefetch size cap for the first two, 30 KB for PB-PPM), plus the
// no-prefetch baseline. The last split of the §4 sweep (not the
// observation sweep) also trains and replays the Top-10 pusher, the
// related-work baseline, under the 10 KB cap.
//
// The standard model and LRS-PPM learn the day before each test day
// instead of retraining from day 0; frozen images are canonical, so
// that matches whole-window training. LRS-PPM reads the unbounded
// standard model's trie; the observation sweep, whose standard model
// is 3-PPM, keeps an unbounded trie for it. PB-PPM grades each
// window's ranking, so it and Top-10 train on the whole window.
func Sweep(w *Workload, cfg SweepConfig) ([]DayResult, error) {
	maxDays := cfg.MaxTrainDays
	if maxDays == 0 {
		maxDays = w.Days() - 1
	}
	if maxDays < 1 || maxDays >= w.Days() {
		return nil, fmt.Errorf("experiments: sweep over %d train days needs a trace of at least %d days, have %d",
			maxDays, maxDays+1, w.Days())
	}

	full := ppm.New(ppm.Config{})
	standard, std, learners := ModelPPM, full, []*ppm.Model{full}
	if cfg.Observation {
		standard, std = Model3PPM, ppm.New(ppm.Config{Height: 3})
		learners = append(learners, std)
	}
	mLRS := lrs.Of(full, lrs.Config{})

	var out []DayResult
	for k := 1; k <= maxDays; k++ {
		train := w.DaySessions(0, k)
		test := w.DaySessions(k, k+1)
		if len(train) == 0 || len(test) == 0 {
			return nil, fmt.Errorf("experiments: day %d: empty train (%d) or test (%d) window",
				k, len(train), len(test))
		}
		w.Hooks.Phases.Time(sim.PhaseTrain, func() {
			for _, m := range learners {
				sim.Train(m, w.DaySessions(k-1, k))
			}
		})
		rank := Ranking(train)

		common := sim.Options{
			Path:            w.Path,
			Grades:          rank,
			PredictOnHitToo: cfg.Observation,
			Sizes:           sim.BuildSizeTable(train, test),
		}
		w.Hooks.apply(&common)
		dr := DayResult{TrainDays: k, Results: map[string]metrics.Result{ModelNone: sim.Run(test, common)}}
		replay := func(name string, p markov.Predictor, maxBytes int64) {
			o := common
			o.Predictor, o.MaxPrefetchBytes = p, maxBytes
			res := sim.Run(test, o)
			res.Model = name
			dr.Results[name] = res
			if k == maxDays {
				w.Hooks.ObserveModel(name, p)
			}
		}
		trained := func(p markov.Predictor) markov.Predictor {
			w.Hooks.Phases.Time(sim.PhaseTrain, func() { sim.Train(p, train) })
			return p
		}
		replay(standard, std, sim.DefaultMaxPrefetchBytes)
		replay(ModelLRS, mLRS, sim.DefaultMaxPrefetchBytes)
		replay(ModelPB, trained(paperPB(w)(rank)), sim.PBMaxPrefetchBytes)
		if k == maxDays && !cfg.Observation {
			replay(ModelTop10, trained(topn.New()), sim.DefaultMaxPrefetchBytes)
		}
		out = append(out, dr)
	}
	return out, nil
}
