package experiments

import (
	"fmt"
	"strconv"
	"time"

	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

// Maintenance quantifies the paper's assumption that the server model
// is "dynamically maintained and updated", and what incremental
// maintenance buys. Every evaluation day is replayed against three
// PB-PPM models: a static one trained only on day 0; one rebuilt each
// morning by a maintainer from a sliding window of all history so far;
// and one that a second maintainer updates each morning from the
// second evaluation day on by a delta merge, which trains only the
// sessions observed since its last update into the model in place.
// The rebuild and delta wall-time columns show the update-cost gap
// growing with the window; the hit-ratio columns bound what the delta
// path's deferred re-ranking and space optimization cost in accuracy.
type Maintenance struct {
	Workload string
	Days     []int
	Static   []metrics.Result
	Daily    []metrics.Result
	// RebuildSeconds is each day's rebuild wall time. Delta and
	// DeltaSeconds hold the delta-merge model's replay and update time
	// for the last len(Delta) days: every day but the first. Wall times
	// vary run to run, so they are absent from Headline.
	RebuildSeconds []float64
	Delta          []metrics.Result
	DeltaSeconds   []float64
}

// RunMaintenance executes the experiment over every day after the
// first.
func RunMaintenance(w *Workload) (*Maintenance, error) {
	if w.Days() < 3 {
		return nil, fmt.Errorf("experiments: maintenance needs at least 3 days, have %d", w.Days())
	}
	day0 := w.DaySessions(0, 1)
	if len(day0) == 0 {
		return nil, fmt.Errorf("experiments: maintenance: empty first day")
	}
	factory := paperPB(w)

	// Static model: trained once on day 0.
	staticRank := Ranking(day0)
	staticModel := factory(staticRank)
	w.Hooks.Phases.Time(sim.PhaseTrain, func() { sim.Train(staticModel, day0) })
	w.Hooks.ObserveModel("static", staticModel)

	window := time.Duration(w.Days()) * 24 * time.Hour
	rebuildM, err := maintain.New(maintain.Config{Factory: factory, Window: window})
	if err != nil {
		return nil, err
	}
	deltaM, err := maintain.New(maintain.Config{Factory: factory, Window: window})
	if err != nil {
		return nil, err
	}
	observe := func(ss []session.Session) {
		for _, s := range ss {
			rebuildM.Observe(s)
			deltaM.Observe(s)
		}
	}
	observe(day0)
	// The delta path needs a base model to train into: the same build
	// as the first daily rebuild, but not a comparison row.
	w.Hooks.Phases.Time(sim.PhaseTrain, func() { deltaM.Rebuild(w.Trace.Epoch.Add(24 * time.Hour)) })

	out := &Maintenance{Workload: w.Name}
	for d := 1; d < w.Days(); d++ {
		test := w.DaySessions(d, d+1)
		if len(test) == 0 {
			continue
		}
		// Morning update over all history before day d: the rebuild
		// retrains the window, the delta merge absorbs only the
		// sessions observed since its last update.
		now := w.Trace.Epoch.Add(time.Duration(d) * 24 * time.Hour)
		var (
			daily, delta         markov.Predictor
			rebuildDur, deltaDur time.Duration
		)
		w.Hooks.Phases.Time(sim.PhaseTrain, func() {
			t0 := time.Now()
			daily = rebuildM.Rebuild(now)
			rebuildDur = time.Since(t0)
			if d > 1 {
				t0 = time.Now()
				delta = deltaM.DeltaMerge(now)
				deltaDur = time.Since(t0)
			}
		})
		w.Hooks.ObserveModel("daily-rebuild", daily)
		// Replays see the document sizes of the days so far, as the §4
		// sweep's do.
		history := w.DaySessions(0, d)
		rank := Ranking(history)
		sizes := sim.BuildSizeTable(history, test)

		common := sim.Options{Path: w.Path, Sizes: sizes, MaxPrefetchBytes: sim.PBMaxPrefetchBytes}
		w.Hooks.apply(&common)
		replay := func(name string, p markov.Predictor, grades *popularity.Ranking) metrics.Result {
			o := common
			o.Predictor = p
			o.Grades = grades
			r := sim.Run(test, o)
			r.Model = name
			return r
		}

		out.Days = append(out.Days, d)
		out.Static = append(out.Static, replay("static", staticModel, staticRank))
		out.Daily = append(out.Daily, replay("daily-rebuild", daily, rank))
		out.RebuildSeconds = append(out.RebuildSeconds, rebuildDur.Seconds())
		if d > 1 {
			w.Hooks.ObserveModel("delta-merge", delta)
			out.Delta = append(out.Delta, replay("delta-merge", delta, rank))
			out.DeltaSeconds = append(out.DeltaSeconds, deltaDur.Seconds())
		}

		// The evaluated day joins both windows for the next update.
		observe(test)
	}
	return out, nil
}

// String renders both tables: static against daily rebuilds, then, from
// the second evaluation day, the delta merge against the rebuild.
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
	cost := &metrics.Table{
		Title:   fmt.Sprintf("Maintenance cost — %s: incremental delta merge vs full rebuild (PB-PPM)", m.Workload),
		Headers: []string{"eval day", "delta update", "rebuild", "speedup", "delta hit", "rebuild hit", "delta nodes", "rebuild nodes"},
	}
	off := len(m.Days) - len(m.Delta)
	for j, delta := range m.Delta {
		i := off + j
		speedup := "-"
		if m.DeltaSeconds[j] > 0 {
			speedup = fmt.Sprintf("%.1fx", m.RebuildSeconds[i]/m.DeltaSeconds[j])
		}
		cost.AddRow(strconv.Itoa(m.Days[i]),
			fmt.Sprintf("%.1fms", m.DeltaSeconds[j]*1000),
			fmt.Sprintf("%.1fms", m.RebuildSeconds[i]*1000),
			speedup,
			metrics.Pct(delta.HitRatio()),
			metrics.Pct(m.Daily[i].HitRatio()),
			strconv.Itoa(delta.Nodes),
			strconv.Itoa(m.Daily[i].Nodes))
	}
	return tb.String() + "\n" + cost.String()
}
