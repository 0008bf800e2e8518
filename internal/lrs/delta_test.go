package lrs

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestCloneDeltaMergeEquivalence checks the LRS-specific wrinkle of the
// incremental contract: a delta can promote a once-seen sequence across
// the repeat threshold, so the model must keep its full suffix trie
// (including count-1 nodes) between freezes, not just the pruned
// prediction view. Training the delta into the frozen base must give
// the snapshot of a retrain on base+delta, and the first snapshot keeps
// its image and its predictions.
func TestCloneDeltaMergeEquivalence(t *testing.T) {
	base := [][]string{{"/a", "/b", "/c"}, {"/x", "/y"}}
	delta := [][]string{{"/a", "/b", "/c"}, {"/x", "/y"}}
	ctxs := [][]string{{"/a"}, {"/a", "/b"}, {"/x"}}
	image := func(p markov.Predictor) []byte { return p.(markov.ArenaHolder).Arena().Bytes() }

	live := New(Config{})
	markov.TrainAll(live, base)
	first := live.Freeze()
	firstImage := bytes.Clone(image(first))
	firstPreds := make([][]markov.Prediction, len(ctxs))
	for i, ctx := range ctxs {
		firstPreds[i] = first.Predict(ctx)
	}

	markov.TrainAll(live, delta)
	merged := live.Freeze()

	retrain := New(Config{})
	markov.TrainAll(retrain, append(append([][]string{}, base...), delta...))
	retrained := retrain.Freeze()

	if got, want := live.Patterns(), retrain.Patterns(); !reflect.DeepEqual(got, want) {
		t.Errorf("patterns: merged %+v, retrain %+v", got, want)
	}
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
	// The once-seen sequences crossed the threshold in the merged
	// snapshot only; the first one still holds the smaller pruned view.
	if merged.NodeCount() <= first.NodeCount() {
		t.Errorf("delta did not promote repeating sequences: %d <= %d nodes", merged.NodeCount(), first.NodeCount())
	}
	for _, ctx := range [][]string{{"/a"}, {"/x"}} {
		if len(first.Predict(ctx)) != 0 || len(merged.Predict(ctx)) == 0 {
			t.Errorf("Predict(%v): first %+v, merged %+v; want only the merged snapshot to predict the promoted sequence",
				ctx, first.Predict(ctx), merged.Predict(ctx))
		}
	}
}
