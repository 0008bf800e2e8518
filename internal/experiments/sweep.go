package experiments

import (
	"fmt"

	"pbppm/internal/lrs"
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
func Sweep(w *Workload, cfg SweepConfig) ([]DayResult, error) {
	maxDays := cfg.MaxTrainDays
	if maxDays == 0 {
		maxDays = w.Days() - 1
	}
	if maxDays < 1 || maxDays >= w.Days() {
		return nil, fmt.Errorf("experiments: sweep over %d train days needs a trace of at least %d days, have %d",
			maxDays, maxDays+1, w.Days())
	}

	var out []DayResult
	for k := 1; k <= maxDays; k++ {
		train := w.DaySessions(0, k)
		test := w.DaySessions(k, k+1)
		if len(train) == 0 || len(test) == 0 {
			return nil, fmt.Errorf("experiments: day %d: empty train (%d) or test (%d) window",
				k, len(train), len(test))
		}
		rank := Ranking(train)

		common := sim.Options{
			Path:            w.Path,
			Grades:          rank,
			PredictOnHitToo: cfg.Observation,
		}
		w.Hooks.apply(&common)
		runs := []sim.NamedRun{}
		addRun := func(name string, opt sim.Options) {
			runs = append(runs, sim.NamedRun{Name: name, Options: opt})
		}

		standard, height := ModelPPM, 0
		if cfg.Observation {
			standard, height = Model3PPM, 3
		}
		o := common
		o.Predictor = ppm.New(ppm.Config{Height: height})
		o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
		addRun(standard, o)

		o = common
		o.Predictor = lrs.New(lrs.Config{})
		o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
		addRun(ModelLRS, o)

		o = common
		o.Predictor = paperPB(w)(rank)
		o.MaxPrefetchBytes = sim.PBMaxPrefetchBytes
		addRun(ModelPB, o)

		if k == maxDays && !cfg.Observation {
			o = common
			o.Predictor = topn.New()
			o.MaxPrefetchBytes = sim.DefaultMaxPrefetchBytes
			addRun(ModelTop10, o)
		}

		results := sim.Compare(train, test, runs)
		w.Hooks.ObserveModels(runs)
		dr := DayResult{TrainDays: k, Results: make(map[string]metrics.Result, len(results))}
		for _, r := range results {
			dr.Results[r.Model] = r
		}
		out = append(out, dr)
	}
	return out, nil
}
