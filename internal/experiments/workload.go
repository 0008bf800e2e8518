// Package experiments regenerates every table and figure of the
// paper's evaluation (§3.3–§5) on the synthetic NASA-like and
// UCB-CS-like workloads, plus ablations of PB-PPM's design choices.
// Each experiment renders its results as a plain-text table whose rows
// mirror the paper's artifact.
package experiments

import (
	"fmt"

	"pbppm/internal/latency"
	"pbppm/internal/popularity"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

// Workload is a fully prepared trace: sessionized, size-tabled, and
// with a fitted latency path.
type Workload struct {
	Name     string
	Trace    *trace.Trace
	Sessions []session.Session
	Sizes    map[string]int64
	Path     latency.Path
	// DropSingletons selects PB-PPM's second space optimization, which
	// the paper enables for the UCB-CS trace.
	DropSingletons bool
	// Hooks is optional run instrumentation (phase timing, progress,
	// model statistics) every experiment threads into its simulator
	// runs; the zero value disables it.
	Hooks Hooks
}

// NewWorkload sessionizes a trace and fits the latency path.
func NewWorkload(name string, tr *trace.Trace) (*Workload, error) {
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("experiments: workload %q: empty trace", name)
	}
	sessions := session.Sessionize(tr, session.Config{})
	if len(sessions) == 0 {
		return nil, fmt.Errorf("experiments: workload %q: no sessions", name)
	}
	sizes := sim.BuildSizeTable(sessions)
	path, err := sim.FitPathFromTrace(sizes, 42)
	if err != nil {
		return nil, fmt.Errorf("experiments: workload %q: %w", name, err)
	}
	return &Workload{
		Name:     name,
		Trace:    tr,
		Sessions: sessions,
		Sizes:    sizes,
		Path:     path,
	}, nil
}

// FromProfile generates the profile's trace and wraps it.
func FromProfile(p tracegen.Profile) (*Workload, error) {
	tr, err := tracegen.Generate(p)
	if err != nil {
		return nil, err
	}
	w, err := NewWorkload(p.Name, tr)
	if err != nil {
		return nil, err
	}
	// Both synthetic workloads enable PB-PPM's absolute-count space
	// optimization (§3.4's second alternative, which the paper applies
	// to "some traces"): at our generation scale the singleton share is
	// higher than in the month-long real logs, and the ablation
	// experiment isolates the optimization's effect separately.
	w.DropSingletons = true
	return w, nil
}

// NASAWorkload builds the workload standing in for the NASA trace.
func NASAWorkload() (*Workload, error) { return FromProfile(tracegen.NASA()) }

// UCBWorkload builds the workload standing in for the UCB-CS trace.
func UCBWorkload() (*Workload, error) { return FromProfile(tracegen.UCBCS()) }

// Days returns the number of day windows covered by the trace.
func (w *Workload) Days() int { return w.Trace.Days() }

// DaySessions returns the sessions that start within day window
// [from, to).
func (w *Workload) DaySessions(from, to int) []session.Session {
	var out []session.Session
	for _, s := range w.Sessions {
		d := int(s.Start().Sub(w.Trace.Epoch) / (24 * 3600 * 1e9))
		if d >= from && d < to {
			out = append(out, s)
		}
	}
	return out
}

// split is a train/test window pair and the ranking of its training
// sessions.
type split struct {
	train, test []session.Session
	rank        *popularity.Ranking
}

// lastDay splits the workload the way the ablations, the baselines and
// predict-bench evaluate it: every day but the last trains, the last
// day tests. what names the experiment in errors.
func lastDay(w *Workload, what string) (split, error) {
	trainDays := w.Days() - 1
	if trainDays < 1 {
		return split{}, fmt.Errorf("experiments: %s: need at least 2 days, have %d", what, w.Days())
	}
	sp := split{train: w.DaySessions(0, trainDays), test: w.DaySessions(trainDays, trainDays+1)}
	if len(sp.train) == 0 || len(sp.test) == 0 {
		return split{}, fmt.Errorf("experiments: %s: empty window", what)
	}
	sp.rank = Ranking(sp.train)
	return sp, nil
}

// Ranking builds the popularity ranking the server would hold after
// observing the given training sessions (clicked pages only, which is
// what the prediction models store).
func Ranking(train []session.Session) *popularity.Ranking {
	rk := popularity.NewRanking()
	for _, s := range train {
		for _, v := range s.Views {
			rk.Observe(v.URL, 1)
		}
	}
	return rk
}
