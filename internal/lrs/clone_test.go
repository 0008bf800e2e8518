package lrs

import (
	"reflect"
	"testing"
)

// TestCloneDeltaMergeEquivalence checks the LRS-specific wrinkle of the
// incremental contract: a delta can promote a once-seen sequence across
// the repeat threshold, so the clone must carry the full suffix trie
// (including count-1 nodes), not just the pruned prediction view.
func TestCloneDeltaMergeEquivalence(t *testing.T) {
	base := [][]string{{"/a", "/b", "/c"}, {"/x", "/y"}}
	delta := [][]string{{"/a", "/b", "/c"}, {"/x", "/y"}}

	live := New(Config{})
	for _, s := range base {
		live.TrainSequence(s)
	}
	baseNodes := live.NodeCount()

	shard := live.NewShard()
	for _, s := range delta {
		shard.TrainSequence(s)
	}
	merged := live.Clone().(*Model)
	merged.MergeShard(shard)

	retrain := New(Config{})
	for _, s := range append(append([][]string{}, base...), delta...) {
		retrain.TrainSequence(s)
	}

	if got, want := merged.Patterns(), retrain.Patterns(); !reflect.DeepEqual(got, want) {
		t.Errorf("patterns: merged %+v, retrain %+v", got, want)
	}
	for _, ctx := range [][]string{{"/a"}, {"/a", "/b"}, {"/x"}} {
		if got, want := merged.Predict(ctx), retrain.Predict(ctx); !reflect.DeepEqual(got, want) {
			t.Errorf("Predict(%v): merged %+v, retrain %+v", ctx, got, want)
		}
	}
	// The once-seen sequences crossed the threshold in the merged model
	// only; the live model still holds its smaller pruned view.
	if live.NodeCount() != baseNodes {
		t.Errorf("delta merge mutated the live model: %d -> %d nodes", baseNodes, live.NodeCount())
	}
	if merged.NodeCount() <= baseNodes {
		t.Errorf("delta did not promote repeating sequences: %d <= %d", merged.NodeCount(), baseNodes)
	}
}
