package experiments

import (
	"fmt"
	"strconv"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

// Maintenance quantifies the paper's assumption that the server model
// is "dynamically maintained and updated": every evaluation day is
// replayed twice, once against a static PB-PPM model trained only on
// day 0 and once against a model rebuilt each morning from a sliding
// window of all history so far.
type Maintenance struct {
	Workload string
	Days     []int
	Static   []metrics.Result
	Daily    []metrics.Result
}

// RunMaintenance executes the experiment over every day after the
// first.
func RunMaintenance(w *Workload) (*Maintenance, error) {
	if w.Days() < 3 {
		return nil, fmt.Errorf("experiments: maintenance needs at least 3 days, have %d", w.Days())
	}

	factory := func(rank *popularity.Ranking) markov.Predictor {
		return core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons})
	}

	// Static model: trained once on day 0.
	day0 := w.DaySessions(0, 1)
	if len(day0) == 0 {
		return nil, fmt.Errorf("experiments: maintenance: empty first day")
	}
	staticModel := factory(Ranking(day0))
	w.Hooks.Phases.Time(sim.PhaseTrain, func() { sim.Train(staticModel, day0) })
	w.Hooks.ObserveModel("static", staticModel)
	staticRank := Ranking(day0)

	maint, err := maintain.New(maintain.Config{
		Factory: factory,
		Window:  time.Duration(w.Days()) * 24 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	for _, s := range day0 {
		maint.Observe(s)
	}

	out := &Maintenance{Workload: w.Name}
	for d := 1; d < w.Days(); d++ {
		test := w.DaySessions(d, d+1)
		if len(test) == 0 {
			continue
		}
		// Morning rebuild over all history before day d.
		var daily markov.Predictor
		w.Hooks.Phases.Time(sim.PhaseTrain, func() {
			daily = maint.Rebuild(w.Trace.Epoch.Add(time.Duration(d) * 24 * time.Hour))
		})
		w.Hooks.ObserveModel("daily-rebuild", daily)
		dailyRank := Ranking(w.DaySessions(0, d))

		common := sim.Options{Path: w.Path, Sizes: w.Sizes, MaxPrefetchBytes: sim.PBMaxPrefetchBytes}
		w.Hooks.apply(&common)

		so := common
		so.Predictor = staticModel
		so.Grades = staticRank
		sres := sim.Run(test, so)
		sres.Model = "static"

		do := common
		do.Predictor = daily
		do.Grades = dailyRank
		dres := sim.Run(test, do)
		dres.Model = "daily-rebuild"

		out.Days = append(out.Days, d)
		out.Static = append(out.Static, sres)
		out.Daily = append(out.Daily, dres)

		// The evaluated day joins the window for the next rebuild.
		for _, s := range test {
			maint.Observe(s)
		}
	}
	return out, nil
}

// String renders the comparison.
func (m *Maintenance) String() string {
	tb := &metrics.Table{
		Title:   fmt.Sprintf("Model maintenance — %s: static day-0 model vs daily rebuilds (PB-PPM)", m.Workload),
		Headers: []string{"eval day", "static hit", "daily hit", "static nodes", "daily nodes"},
	}
	for i, d := range m.Days {
		tb.AddRow(strconv.Itoa(d),
			metrics.Pct(m.Static[i].HitRatio()),
			metrics.Pct(m.Daily[i].HitRatio()),
			strconv.Itoa(m.Static[i].Nodes),
			strconv.Itoa(m.Daily[i].Nodes))
	}
	return tb.String()
}

// MaintenanceCost quantifies what incremental maintenance buys: each
// evaluation day, the sessions of the previous day are folded into the
// live PB-PPM model twice — once through the delta-merge path (train
// only the new sessions into the model in place, then freeze it) and
// once through a full rebuild over the whole window — and the day
// is replayed against both models. The wall-time columns show the
// update-cost gap growing with the window while the headline metrics
// stay equal; the hit-ratio columns bound what the delta path's
// deferred re-ranking and space optimization cost in accuracy.
type MaintenanceCost struct {
	Workload string
	Days     []int
	// DeltaSeconds and RebuildSeconds are the measured update costs for
	// the two paths on each day. Wall times vary run to run, so they are
	// deliberately absent from Headline.
	DeltaSeconds   []float64
	RebuildSeconds []float64
	Delta          []metrics.Result
	Rebuilt        []metrics.Result
}

// RunMaintenanceCost executes the experiment over every day after the
// second (day 0 seeds the initial build, day 1 is the first delta).
func RunMaintenanceCost(w *Workload) (*MaintenanceCost, error) {
	if w.Days() < 3 {
		return nil, fmt.Errorf("experiments: maintenance-cost needs at least 3 days, have %d", w.Days())
	}

	factory := func(rank *popularity.Ranking) markov.Predictor {
		return core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons})
	}
	window := time.Duration(w.Days()) * 24 * time.Hour
	deltaM, err := maintain.New(maintain.Config{Factory: factory, Window: window})
	if err != nil {
		return nil, err
	}
	fullM, err := maintain.New(maintain.Config{Factory: factory, Window: window})
	if err != nil {
		return nil, err
	}

	day0 := w.DaySessions(0, 1)
	if len(day0) == 0 {
		return nil, fmt.Errorf("experiments: maintenance-cost: empty first day")
	}
	observeBoth := func(ss []session.Session) {
		for _, s := range ss {
			deltaM.Observe(s)
			fullM.Observe(s)
		}
	}
	observeBoth(day0)
	// Initial build on both: the delta path needs a base model to train
	// into. Not a comparison row.
	w.Hooks.Phases.Time(sim.PhaseTrain, func() {
		deltaM.Rebuild(w.Trace.Epoch.Add(24 * time.Hour))
		fullM.Rebuild(w.Trace.Epoch.Add(24 * time.Hour))
	})
	observeBoth(w.DaySessions(1, 2))

	out := &MaintenanceCost{Workload: w.Name}
	for d := 2; d < w.Days(); d++ {
		test := w.DaySessions(d, d+1)
		if len(test) == 0 {
			continue
		}
		// Morning update: the delta merge absorbs only the sessions
		// staged since the last update; the rebuild retrains the window.
		now := w.Trace.Epoch.Add(time.Duration(d) * 24 * time.Hour)
		var (
			deltaModel, fullModel markov.Predictor
			deltaDur, fullDur     time.Duration
		)
		w.Hooks.Phases.Time(sim.PhaseTrain, func() {
			t0 := time.Now()
			deltaModel = deltaM.DeltaMerge(now)
			deltaDur = time.Since(t0)
			t0 = time.Now()
			fullModel = fullM.Rebuild(now)
			fullDur = time.Since(t0)
		})
		w.Hooks.ObserveModel("delta-merge", deltaModel)
		w.Hooks.ObserveModel("full-rebuild", fullModel)
		rank := Ranking(w.DaySessions(0, d))

		common := sim.Options{Path: w.Path, Sizes: w.Sizes, MaxPrefetchBytes: sim.PBMaxPrefetchBytes}
		w.Hooks.apply(&common)

		do := common
		do.Predictor = deltaModel
		do.Grades = rank
		dres := sim.Run(test, do)
		dres.Model = "delta-merge"

		fo := common
		fo.Predictor = fullModel
		fo.Grades = rank
		fres := sim.Run(test, fo)
		fres.Model = "full-rebuild"

		out.Days = append(out.Days, d)
		out.DeltaSeconds = append(out.DeltaSeconds, deltaDur.Seconds())
		out.RebuildSeconds = append(out.RebuildSeconds, fullDur.Seconds())
		out.Delta = append(out.Delta, dres)
		out.Rebuilt = append(out.Rebuilt, fres)

		// The evaluated day joins both windows for the next update.
		observeBoth(test)
	}
	return out, nil
}

// String renders the comparison.
func (m *MaintenanceCost) String() string {
	tb := &metrics.Table{
		Title:   fmt.Sprintf("Maintenance cost — %s: incremental delta merge vs full rebuild (PB-PPM)", m.Workload),
		Headers: []string{"eval day", "delta update", "rebuild", "speedup", "delta hit", "rebuild hit", "delta nodes", "rebuild nodes"},
	}
	for i, d := range m.Days {
		speedup := "-"
		if m.DeltaSeconds[i] > 0 {
			speedup = fmt.Sprintf("%.1fx", m.RebuildSeconds[i]/m.DeltaSeconds[i])
		}
		tb.AddRow(strconv.Itoa(d),
			fmt.Sprintf("%.1fms", m.DeltaSeconds[i]*1000),
			fmt.Sprintf("%.1fms", m.RebuildSeconds[i]*1000),
			speedup,
			metrics.Pct(m.Delta[i].HitRatio()),
			metrics.Pct(m.Rebuilt[i].HitRatio()),
			strconv.Itoa(m.Delta[i].Nodes),
			strconv.Itoa(m.Rebuilt[i].Nodes))
	}
	return tb.String()
}
