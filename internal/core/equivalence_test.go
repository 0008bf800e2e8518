package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pbppm/internal/core"
	"pbppm/internal/experiments"
	"pbppm/internal/lrs"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
	"pbppm/internal/ppm"
	"pbppm/internal/sim"
	"pbppm/internal/topn"
	"pbppm/internal/tracegen"
)

// The oracles below are the predict implementations the models ran on
// their pointer trees before every model predicted from its frozen
// snapshot. The frozen≡live tests hold each snapshot to them.

// longestMatch returns the deepest node matching the longest suffix of
// ctx that is a path from tr's root, and the suffix's length, by
// rescanning each suffix.
func longestMatch(tr *markov.Tree, ctx []string) (*markov.Node, int) {
	for i := range ctx {
		if n := tr.Match(ctx[i:]); n != nil {
			return n, len(ctx) - i
		}
	}
	return nil, 0
}

// children appends n's children with conditional probability at least
// threshold, each weighted by weight and carrying order.
func children(buf []markov.Prediction, tr *markov.Tree, n *markov.Node, threshold, weight float64, order int) []markov.Prediction {
	if n == nil || n.Count == 0 {
		return buf
	}
	tr.EachChild(n, func(url string, c *markov.Node) bool {
		if p := float64(c.Count) / float64(n.Count) * weight; p >= threshold {
			buf = append(buf, markov.Prediction{URL: url, Probability: p, Order: order})
		}
		return true
	})
	return buf
}

// livePPM is ppm.Model's predict: the context trimmed to the trailing
// height-1 URLs, then the longest match's children or, with
// BlendOrders, every matching order's children weighted by
// 1 - 1/(1+count), each URL keeping its highest estimate (the longer
// order on a tie).
func livePPM(m *ppm.Model, cfg ppm.Config, ctx []string) []markov.Prediction {
	tr, thr := m.Tree(), ppm.ThresholdOrDefault(cfg.Threshold)
	if cfg.Height > 0 && len(ctx) >= cfg.Height {
		ctx = ctx[len(ctx)-(cfg.Height-1):]
	}
	if !cfg.BlendOrders {
		n, order := longestMatch(tr, ctx)
		out := children(nil, tr, n, thr, 1, order)
		markov.SortPredictions(out)
		return out
	}
	best := map[string]markov.Prediction{}
	for i := range ctx {
		n := tr.Match(ctx[i:])
		if n == nil || n.Count == 0 {
			continue
		}
		for _, p := range children(nil, tr, n, 0, 1-1/(1+float64(n.Count)), len(ctx)-i) {
			if b, ok := best[p.URL]; !ok || p.Probability > b.Probability {
				best[p.URL] = p
			}
		}
	}
	var out []markov.Prediction
	for _, p := range best {
		if p.Probability >= thr {
			out = append(out, p)
		}
	}
	markov.SortPredictions(out)
	return out
}

// liveLRS is lrs.Model's predict: the longest match's children on the
// repeating-only tree.
func liveLRS(m *lrs.Model, cfg lrs.Config, ctx []string) []markov.Prediction {
	tr := m.Tree()
	n, order := longestMatch(tr, ctx)
	out := children(nil, tr, n, ppm.ThresholdOrDefault(cfg.Threshold), 1, order)
	markov.SortPredictions(out)
	return out
}

// livePB is core.Model's predict: the longest match's children over
// the whole context and, when the current click is a root, its
// strongest rule-3 links above the threshold, read from the live link
// counts against the root's count; a URL keeps its highest estimate
// and a tree candidate wins a tie.
func livePB(m *core.Model, cfg core.Config, ctx []string) []markov.Prediction {
	if len(ctx) == 0 {
		return nil
	}
	tr, thr := m.Tree(), ppm.ThresholdOrDefault(cfg.Threshold)
	n, order := longestMatch(tr, ctx)
	out := children(nil, tr, n, thr, 1, order)
	markov.SortPredictions(out)
	cur := ctx[len(ctx)-1]
	if root := tr.Child(tr.Root, cur); root != nil && !cfg.DisableLinks {
		var linked []markov.Prediction
		for url, cnt := range core.Links(m)[cur] {
			if p := float64(cnt) / float64(root.Count); p >= thr {
				linked = append(linked, markov.Prediction{URL: url, Probability: p, Order: 1})
			}
		}
		markov.SortPredictions(linked)
		if len(linked) > core.MaxLinkPredictions {
			linked = linked[:core.MaxLinkPredictions]
		}
		for _, l := range linked {
			i := slices.IndexFunc(out, func(p markov.Prediction) bool { return p.URL == l.URL })
			switch {
			case i < 0:
				out = append(out, l)
			case l.Probability > out[i].Probability:
				out[i] = l
			}
		}
	}
	markov.SortPredictions(out)
	return out
}

// liveTopN is topn.Model's predict before it froze: the ranking sorted
// on every call, its 11 most popular documents without the current
// click, at most 10 of them, each at its relative popularity.
func liveTopN(m *topn.Model, ctx []string) []markov.Prediction {
	cur := ""
	if len(ctx) > 0 {
		cur = ctx[len(ctx)-1]
	}
	var out []markov.Prediction
	for _, u := range m.Ranking().Top(11) {
		if u == cur {
			continue
		}
		out = append(out, markov.Prediction{URL: u, Probability: m.Ranking().Relative(u)})
		if len(out) == 10 {
			break
		}
	}
	return out
}

// contractSequences is a deterministic Zipf-ish workload small enough
// for fast tests but skewed enough to produce probability ties.
func contractSequences(rng *rand.Rand, n int) [][]string {
	urls := make([]string, 24)
	for i := range urls {
		urls[i] = fmt.Sprintf("/doc/%02d", i)
	}
	seqs := make([][]string, n)
	for i := range seqs {
		s := make([]string, rng.Intn(6)+2)
		for j := range s {
			s[j] = urls[rng.Intn(rng.Intn(len(urls))+1)]
		}
		seqs[i] = s
	}
	return seqs
}

func contractContexts(rng *rand.Rand, n int) [][]string {
	ctxs := make([][]string, n)
	for i := range ctxs {
		ctx := make([]string, rng.Intn(4)+1)
		for j := range ctx {
			ctx[j] = fmt.Sprintf("/doc/%02d", rng.Intn(26)) // includes unseen URLs
		}
		ctxs[i] = ctx
	}
	return ctxs
}

// TestFrozenModelsMatchLiveModels is the model-level golden suite of
// the freeze: every freezer's snapshot must reproduce the predictions
// of the model's predict before it froze (the oracles above) bit for
// bit — including PB-PPM's precomputed popular-node links, the blended
// variant's confidence arithmetic and Top-N's ranked list.
func TestFrozenModelsMatchLiveModels(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	seqs := contractSequences(rng, 400)
	rank := popularity.NewRanking()
	for _, s := range seqs {
		for _, u := range s {
			rank.Observe(u, 1)
		}
	}
	ppm3 := ppm.Config{Height: 3}
	blended := ppm.Config{BlendOrders: true}
	pbCfg := core.Config{RelProbCutoff: 0.01}
	models := map[string]markov.Predictor{
		"3-PPM":       ppm.New(ppm3),
		"PPM-blended": ppm.New(blended),
		"LRS":         lrs.New(lrs.Config{}),
		"PB-PPM":      core.New(rank, pbCfg),
		"Top-10":      topn.New(),
	}
	oracles := map[string]func(ctx []string) []markov.Prediction{
		"3-PPM": func(ctx []string) []markov.Prediction { return livePPM(models["3-PPM"].(*ppm.Model), ppm3, ctx) },
		"PPM-blended": func(ctx []string) []markov.Prediction {
			return livePPM(models["PPM-blended"].(*ppm.Model), blended, ctx)
		},
		"LRS":    func(ctx []string) []markov.Prediction { return liveLRS(models["LRS"].(*lrs.Model), lrs.Config{}, ctx) },
		"PB-PPM": func(ctx []string) []markov.Prediction { return livePB(models["PB-PPM"].(*core.Model), pbCfg, ctx) },
		"Top-10": func(ctx []string) []markov.Prediction { return liveTopN(models["Top-10"].(*topn.Model), ctx) },
	}
	for _, m := range models {
		for _, s := range seqs {
			m.TrainSequence(s)
		}
	}
	for name, m := range models {
		if fz, ok := m.(markov.Freezer); ok {
			models[name+"/frozen"] = fz.Freeze()
		}
	}
	ctxs := contractContexts(rand.New(rand.NewSource(53)), 400)
	for name, m := range models {
		frozen, ok := models[name+"/frozen"]
		if !ok {
			continue
		}
		for _, ctx := range ctxs {
			want := oracles[name](ctx)
			got := frozen.Predict(ctx)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ctx %v:\n frozen %+v\n live   %+v", name, ctx, got, want)
			}
		}
		if got, want := frozen.NodeCount(), m.NodeCount(); got != want {
			t.Fatalf("%s: frozen NodeCount %d, live %d", name, got, want)
		}
	}
}

// TestFrozenMatchesLiveOnReproduceTrace is the golden equivalence
// check on the reproduce trace itself (not just randomized trees): the
// frozen PB-PPM model must predict bit-identically to the pointer-tree
// predict (livePB) over every context of the held-out test day, each
// cut to the server's 16-URL tail.
func TestFrozenMatchesLiveOnReproduceTrace(t *testing.T) {
	const contextTail = 16
	p := tracegen.NASA()
	p.Days = 4
	p.SessionsPerDay = 500
	p.Pages = 300
	p.Browsers = 200
	p.CrawlerPagesPerDay = 150
	w, err := experiments.FromProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	trainDays := w.Days() - 1
	train := w.DaySessions(0, trainDays)
	test := w.DaySessions(trainDays, trainDays+1)
	rank := experiments.Ranking(train)
	cfg := core.Config{RelProbCutoff: 0.01, DropSingletons: w.DropSingletons}
	live := core.New(rank, cfg)
	sim.Train(live, train)
	frozen := live.Freeze()

	var buf []markov.Prediction
	checked := 0
	for _, s := range test {
		urls := s.URLs()
		for i := 1; i <= len(urls); i++ {
			ctx := urls[:i]
			if len(ctx) > contextTail {
				ctx = ctx[len(ctx)-contextTail:]
			}
			want := livePB(live, cfg, ctx)
			got := frozen.Predict(ctx)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ctx %v:\n frozen %+v\n live   %+v", ctx, got, want)
			}
			buf = markov.PredictInto(frozen, ctx, buf)
			if len(want) != 0 && !reflect.DeepEqual([]markov.Prediction(buf), want) {
				t.Fatalf("ctx %v: buffered frozen path diverged", ctx)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no test contexts checked")
	}
	if got, want := frozen.NodeCount(), live.NodeCount(); got != want {
		t.Fatalf("frozen NodeCount %d, live %d", got, want)
	}
}
