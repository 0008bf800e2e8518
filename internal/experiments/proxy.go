package experiments

import (
	"fmt"
	"sort"
	"strconv"

	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/ppm"
	"pbppm/internal/session"
	"pbppm/internal/sim"
)

// Proxy experiment model labels (§5).
const (
	ModelPB4KB  = "PB-PPM-4KB"
	ModelPB10KB = "PB-PPM-10KB"
)

// Figure5 reports total hit ratios and traffic increments between a
// Web server and a proxy as the number of clients behind the proxy
// grows (§5): standard PPM, LRS-PPM, and PB-PPM with 4 KB and 10 KB
// prefetch size thresholds.
type Figure5 struct {
	Workload     string
	ClientCounts []int
	// Results[i] maps model name to its metrics with ClientCounts[i]
	// clients behind the proxy.
	Results []map[string]metrics.Result
}

// Figure5Config controls the proxy experiment.
type Figure5Config struct {
	// ClientCounts lists the population sizes; zero selects the paper's
	// 1..32 progression.
	ClientCounts []int
}

// RunFigure5 executes the experiment: the models train on every day
// but the last and serve the last. Clients are selected in descending
// test-day activity order so that every population size is
// deterministic and non-empty.
func RunFigure5(w *Workload, cfg Figure5Config) (*Figure5, error) {
	counts := cfg.ClientCounts
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16, 24, 32}
	}
	sp, err := lastDay(w, "figure 5")
	if err != nil {
		return nil, err
	}
	train, test, rank := sp.train, sp.test, sp.rank

	// Rank test-day clients by activity. Only browser-class addresses
	// qualify: the experiment attaches end-user clients to the proxy,
	// so addresses the >100-requests/day heuristic classifies as
	// proxies or robots are excluded.
	classes := session.ClassifyClients(w.Trace, 0)
	activity := map[string]int{}
	for _, s := range test {
		if classes[s.Client] == session.Proxy {
			continue
		}
		activity[s.Client] += s.Len()
	}
	clients := make([]string, 0, len(activity))
	for c := range activity {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool {
		if activity[clients[i]] != activity[clients[j]] {
			return activity[clients[i]] > activity[clients[j]]
		}
		return clients[i] < clients[j]
	})

	// Train the three models once; prediction does not mutate counts,
	// so each model can serve every population size, and PB-PPM both
	// of its size thresholds.
	mPPM := ppm.New(ppm.Config{})
	mLRS := lrs.New(lrs.Config{})
	mPB := paperPB(w)(rank)
	w.Hooks.Phases.Time(sim.PhaseTrain, func() {
		sim.Train(mPPM, train)
		sim.Train(mLRS, train)
		sim.Train(mPB, train)
	})
	w.Hooks.ObserveModel(ModelPPM, mPPM)
	w.Hooks.ObserveModel(ModelLRS, mLRS)
	w.Hooks.ObserveModel(ModelPB4KB, mPB)
	w.Hooks.ObserveModel(ModelPB10KB, mPB)
	// Every replay predicts from a model's snapshot; freezing each
	// model once here spares the replays a freeze apiece.
	fPPM, fLRS, fPB := markov.Freeze(mPPM), markov.Freeze(mLRS), markov.Freeze(mPB)

	fig := &Figure5{Workload: w.Name}
	for _, n := range counts {
		if n > len(clients) {
			n = len(clients)
		}
		selected := map[string]bool{}
		for _, c := range clients[:n] {
			selected[c] = true
		}
		var subset []session.Session
		for _, s := range test {
			if selected[s.Client] {
				subset = append(subset, s)
			}
		}

		common := sim.Options{
			Path:     w.Path,
			Grades:   rank,
			Sizes:    w.Sizes,
			UseProxy: true,
		}
		w.Hooks.apply(&common)
		row := map[string]metrics.Result{}
		for _, mc := range []struct {
			name  string
			model markov.Predictor
			bytes int64
		}{
			{ModelPPM, fPPM, sim.DefaultMaxPrefetchBytes},
			{ModelLRS, fLRS, sim.DefaultMaxPrefetchBytes},
			{ModelPB4KB, fPB, 4 * 1024},
			{ModelPB10KB, fPB, 10 * 1024},
		} {
			opt := common
			opt.Predictor = mc.model
			opt.MaxPrefetchBytes = mc.bytes
			res := sim.Run(subset, opt)
			res.Model = mc.name
			row[mc.name] = res
		}
		base := common
		base.Predictor = nil
		row[ModelNone] = sim.Run(subset, base)

		fig.ClientCounts = append(fig.ClientCounts, n)
		fig.Results = append(fig.Results, row)
	}
	return fig, nil
}

// Models lists the models Figure 5 compares.
func (f *Figure5) Models() []string {
	return []string{ModelPPM, ModelLRS, ModelPB4KB, ModelPB10KB}
}

// String renders both panels.
func (f *Figure5) String() string {
	hit := &metrics.Table{
		Title:   fmt.Sprintf("Figure 5 (left) — %s: proxy hit ratio vs clients", f.Workload),
		Headers: append([]string{"clients"}, f.Models()...),
	}
	traffic := &metrics.Table{
		Title:   fmt.Sprintf("Figure 5 (right) — %s: traffic increase vs clients", f.Workload),
		Headers: append([]string{"clients"}, f.Models()...),
	}
	for i, n := range f.ClientCounts {
		hrow := []string{strconv.Itoa(n)}
		trow := []string{strconv.Itoa(n)}
		for _, m := range f.Models() {
			hrow = append(hrow, metrics.Pct(f.Results[i][m].HitRatio()))
			trow = append(trow, metrics.Pct(f.Results[i][m].TrafficIncrease()))
		}
		hit.AddRow(hrow...)
		traffic.AddRow(trow...)
	}

	// §5: "the total document hits come from three sources" — break the
	// largest population's hits down per model.
	last := len(f.ClientCounts) - 1
	src := &metrics.Table{
		Title: fmt.Sprintf("Figure 5 (hit sources at %d clients) — %s",
			f.ClientCounts[last], f.Workload),
		Headers: []string{"model", "browser", "proxy cache", "proxy prefetch"},
	}
	for _, m := range f.Models() {
		r := f.Results[last][m]
		src.AddRow(m,
			strconv.FormatInt(r.BrowserHits, 10),
			strconv.FormatInt(r.ProxyCacheHits, 10),
			strconv.FormatInt(r.ProxyPrefetchHits, 10))
	}
	return hit.String() + "\n" + traffic.String() + "\n" + src.String()
}
