package ppm

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestCloneDeltaMergeEquivalence: freezing the trained base, training
// only the delta into the same model and freezing again gives the
// snapshot of a retrain on base+delta, and the first snapshot keeps its
// image and its predictions.
func TestCloneDeltaMergeEquivalence(t *testing.T) {
	base := [][]string{{"/a", "/b", "/c"}, {"/a", "/b", "/d"}}
	delta := [][]string{{"/a", "/b", "/c"}, {"/e", "/f"}}
	ctxs := [][]string{{"/a"}, {"/a", "/b"}, {"/e"}}
	image := func(p markov.Predictor) []byte { return p.(markov.ArenaHolder).Arena().Bytes() }

	live := New(Config{Height: 3})
	markov.TrainAll(live, base)
	first := live.Freeze()
	firstImage := bytes.Clone(image(first))
	firstPreds := make([][]markov.Prediction, len(ctxs))
	for i, ctx := range ctxs {
		firstPreds[i] = first.Predict(ctx)
	}

	markov.TrainAll(live, delta)
	merged := live.Freeze()

	retrain := New(Config{Height: 3})
	markov.TrainAll(retrain, append(append([][]string{}, base...), delta...))
	retrained := retrain.Freeze()

	for i, ctx := range ctxs {
		if got, want := merged.Predict(ctx), retrained.Predict(ctx); !reflect.DeepEqual(got, want) {
			t.Errorf("Predict(%v): merged %+v, retrain %+v", ctx, got, want)
		}
		if got := first.Predict(ctx); !reflect.DeepEqual(got, firstPreds[i]) {
			t.Errorf("first snapshot's Predict(%v) changed to %+v, was %+v", ctx, got, firstPreds[i])
		}
	}
	if !bytes.Equal(image(merged), image(retrained)) {
		t.Error("merged model froze to a different image than the retrain")
	}
	if !bytes.Equal(image(first), firstImage) {
		t.Error("training the delta rewrote the first snapshot's image")
	}
}
