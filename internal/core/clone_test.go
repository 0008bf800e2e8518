package core

import (
	"reflect"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestCloneDeltaMergeEquivalence pins the incremental-maintenance
// contract for PB-PPM: clone the live model, train only the delta into
// a shard, fold it in, and the result predicts exactly like a model
// trained on base+delta with the same grader — while the live model is
// untouched.
func TestCloneDeltaMergeEquivalence(t *testing.T) {
	grades := popularity.FixedGrades{
		"/home": 3, "/news": 2, "/news/today": 1, "/sports": 2, "/hot": 3,
	}
	cfg := Config{}
	base := [][]string{
		{"/home", "/news", "/news/today"},
		{"/home", "/sports"},
	}
	delta := [][]string{
		{"/home", "/news", "/hot"},
		{"/sports", "/hot"},
	}

	live := New(grades, cfg)
	for _, s := range base {
		live.TrainSequence(s)
	}
	liveNodes := live.NodeCount()

	shard := live.NewShard()
	for _, s := range delta {
		shard.TrainSequence(s)
	}
	merged := live.Clone().(*Model)
	merged.MergeShard(shard)

	retrain := New(grades, cfg)
	for _, s := range append(append([][]string{}, base...), delta...) {
		retrain.TrainSequence(s)
	}

	for _, ctx := range [][]string{
		{"/home"}, {"/home", "/news"}, {"/sports"}, {"/news"}, {"/hot"},
	} {
		got := merged.Predict(ctx)
		want := retrain.Predict(ctx)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Predict(%v): merged %+v, retrain %+v", ctx, got, want)
		}
	}
	if merged.NodeCount() != retrain.NodeCount() || merged.LinkCount() != retrain.LinkCount() {
		t.Errorf("merged nodes/links = %d/%d, retrain %d/%d",
			merged.NodeCount(), merged.LinkCount(), retrain.NodeCount(), retrain.LinkCount())
	}
	if live.NodeCount() != liveNodes {
		t.Errorf("delta merge mutated the live model: %d -> %d nodes", liveNodes, live.NodeCount())
	}
	var _ markov.IncrementalTrainer = merged // clone stays incrementally trainable
}
