package core

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestCloneDeltaMergeEquivalence pins the incremental-maintenance
// contract for PB-PPM: freeze the trained base, train only the delta
// into the same model, and the next freeze predicts exactly like a
// model trained on base+delta with the same grader — while the first
// snapshot keeps its image and its predictions.
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
	ctxs := [][]string{
		{"/home"}, {"/home", "/news"}, {"/sports"}, {"/news"}, {"/hot"},
	}
	image := func(p markov.Predictor) []byte { return p.(markov.ArenaHolder).Arena().Bytes() }

	live := New(grades, cfg)
	markov.TrainAll(live, base)
	first := live.Freeze()
	firstImage := bytes.Clone(image(first))
	firstPreds := make([][]markov.Prediction, len(ctxs))
	for i, ctx := range ctxs {
		firstPreds[i] = first.Predict(ctx)
	}

	markov.TrainAll(live, delta)
	merged := live.Freeze()

	retrain := New(grades, cfg)
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
	if live.NodeCount() != retrain.NodeCount() || live.LinkCount() != retrain.LinkCount() {
		t.Errorf("merged nodes/links = %d/%d, retrain %d/%d",
			live.NodeCount(), live.LinkCount(), retrain.NodeCount(), retrain.LinkCount())
	}
	if !bytes.Equal(image(merged), image(retrained)) {
		t.Error("merged model froze to a different image than the retrain")
	}
	if !bytes.Equal(image(first), firstImage) {
		t.Error("training the delta rewrote the first snapshot's image")
	}
}
