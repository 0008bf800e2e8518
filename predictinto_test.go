// Serving-path contract tests: every model must honor the
// markov.BufferedPredictor buffer-ownership contract (no aliasing of
// model-internal storage, no retention of the caller's buffer), and
// every training path — serial, sharded, delta-merged, arena-frozen —
// must produce the same predictions in the same pinned order.
package pbppm

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

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

// contractModels returns every model the repo ships, trained on the
// same workload, plus the frozen snapshot of each freezer.
func contractModels(t *testing.T) map[string]Predictor {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	seqs := contractSequences(rng, 400)
	rank := NewRanking()
	for _, s := range seqs {
		for _, u := range s {
			rank.Observe(u, 1)
		}
	}
	models := map[string]Predictor{
		"3-PPM":       NewStandardPPM(PPMConfig{Height: 3}),
		"PPM-blended": NewStandardPPM(PPMConfig{BlendOrders: true}),
		"LRS":         NewLRS(LRSConfig{}),
		"PB-PPM":      NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01}),
		"Top-10":      NewTopN(),
	}
	for _, m := range models {
		for _, s := range seqs {
			m.TrainSequence(s)
		}
	}
	for name, m := range models {
		if fz, ok := m.(Freezer); ok {
			models[name+"/frozen"] = fz.Freeze()
		}
	}
	return models
}

// TestPredictIntoMatchesPredict pins PredictInto to Predict for every
// model, with a buffer reused across calls — the serving paths (HTTP
// server, simulator) depend on this equivalence.
func TestPredictIntoMatchesPredict(t *testing.T) {
	models := contractModels(t)
	ctxs := contractContexts(rand.New(rand.NewSource(17)), 300)
	for name, m := range models {
		var buf []Prediction
		for _, ctx := range ctxs {
			want := m.Predict(ctx)
			buf = PredictInto(m, ctx, buf)
			if len(want) == 0 && len(buf) == 0 {
				continue
			}
			if !reflect.DeepEqual([]Prediction(buf), want) {
				t.Fatalf("%s ctx %v:\n PredictInto %+v\n Predict     %+v", name, ctx, buf, want)
			}
		}
	}
}

// TestPredictIntoDoesNotAliasModelStorage is the regression test for
// the contract's no-aliasing clause: scribbling over a returned buffer
// must not change what the model predicts next. A model that handed out
// a view of its internal candidate storage would fail on the second
// call.
func TestPredictIntoDoesNotAliasModelStorage(t *testing.T) {
	models := contractModels(t)
	ctxs := contractContexts(rand.New(rand.NewSource(31)), 120)
	for name, m := range models {
		var buf []Prediction
		for _, ctx := range ctxs {
			want := m.Predict(ctx)
			buf = PredictInto(m, ctx, buf)
			for i := range buf {
				buf[i] = Prediction{URL: "/poisoned", Probability: -1, Order: -1}
			}
			got := m.Predict(ctx)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s ctx %v: scribbling on the returned buffer changed later predictions:\n before %+v\n after  %+v",
					name, ctx, want, got)
			}
		}
	}
}

// TestFrozenModelsMatchLiveModels is the model-level golden suite of
// the freeze: every freezer's arena snapshot must reproduce the live
// model's predictions bit for bit — including PB-PPM's precomputed
// popular-node links and the blended variant's confidence arithmetic.
func TestFrozenModelsMatchLiveModels(t *testing.T) {
	models := contractModels(t)
	ctxs := contractContexts(rand.New(rand.NewSource(53)), 400)
	for name, m := range models {
		frozen, ok := models[name+"/frozen"]
		if !ok {
			continue
		}
		for _, ctx := range ctxs {
			want := m.Predict(ctx)
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

// TestPredictionOrderPinnedAcrossTrainingPaths is the determinism
// guarantee of the pinned tie order (probability descending, then URL
// ascending): a model trained serially, through parallel shards,
// through the clone-and-merge delta path, and then frozen into an
// arena must emit byte-identical prediction lists.
func TestPredictionOrderPinnedAcrossTrainingPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seqs := contractSequences(rng, 600)
	ctxs := contractContexts(rand.New(rand.NewSource(78)), 400)

	builders := map[string]func() Predictor{
		"3-PPM": func() Predictor { return NewStandardPPM(PPMConfig{Height: 3}) },
		"LRS":   func() Predictor { return NewLRS(LRSConfig{}) },
		"PB-PPM": func() Predictor {
			rank := NewRanking()
			for _, s := range seqs {
				for _, u := range s {
					rank.Observe(u, 1)
				}
			}
			return NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01})
		},
	}
	for name, build := range builders {
		serial := build()
		for _, s := range seqs {
			serial.TrainSequence(s)
		}

		sharded := build()
		markov.TrainAllParallel(sharded, seqs)

		// Delta path: half the workload into the base, the rest through a
		// shard merged into a clone — the maintenance loop's incremental
		// publish.
		base := build()
		half := len(seqs) / 2
		for _, s := range seqs[:half] {
			base.TrainSequence(s)
		}
		inc := base.(markov.IncrementalTrainer)
		merged := inc.Clone().(markov.IncrementalTrainer)
		shard := merged.NewShard()
		for _, s := range seqs[half:] {
			shard.TrainSequence(s)
		}
		merged.MergeShard(shard)

		frozen := serial.(Freezer).Freeze()

		paths := map[string]Predictor{
			"sharded": sharded, "delta-merged": merged, "frozen": frozen,
		}
		for _, ctx := range ctxs {
			want := serial.Predict(ctx)
			for path, m := range paths {
				got := m.Predict(ctx)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s ctx %v:\n got  %+v\n want %+v", name, path, ctx, got, want)
				}
			}
		}
	}
}
