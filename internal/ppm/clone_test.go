package ppm

import (
	"reflect"
	"testing"
)

func TestCloneDeltaMergeEquivalence(t *testing.T) {
	base := [][]string{{"/a", "/b", "/c"}, {"/a", "/b", "/d"}}
	delta := [][]string{{"/a", "/b", "/c"}, {"/e", "/f"}}

	live := New(Config{Height: 3})
	for _, s := range base {
		live.TrainSequence(s)
	}
	before := live.Tree().String()

	shard := live.NewShard()
	for _, s := range delta {
		shard.TrainSequence(s)
	}
	merged := live.Clone().(*Model)
	merged.MergeShard(shard)

	retrain := New(Config{Height: 3})
	for _, s := range append(append([][]string{}, base...), delta...) {
		retrain.TrainSequence(s)
	}

	for _, ctx := range [][]string{{"/a"}, {"/a", "/b"}, {"/e"}} {
		if got, want := merged.Predict(ctx), retrain.Predict(ctx); !reflect.DeepEqual(got, want) {
			t.Errorf("Predict(%v): merged %+v, retrain %+v", ctx, got, want)
		}
	}
	if got := live.Tree().String(); got != before {
		t.Errorf("delta merge mutated the live model:\n%s\nvs\n%s", got, before)
	}
}
