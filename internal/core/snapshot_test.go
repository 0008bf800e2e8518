package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestFrozenSnapshotRoundTrip: the frozen PB-PPM model — arena plus
// rule-3 links — must revive through the kind registry with identical
// predictions and the freeze-time node count intact. This is the model
// image the snapshot-distribution channel ships between processes.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	// The paper's Figure 1 shape: the second max-grade URL lands deep in
	// the open branch and earns a rule-3 link under the heading URL.
	grades := popularity.FixedGrades{"A": 3, "A2": 3, "B": 2, "B2": 2, "C": 1, "C2": 1}
	m := New(grades, Config{Heights: [4]int{1, 2, 3, 4}})
	for i := 0; i < 6; i++ {
		m.TrainSequence([]string{"A", "B", "C", "A2", "B2", "C2"})
		m.TrainSequence([]string{"A", "B", "C2"})
	}
	f := m.Freeze().(*Frozen)

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := markov.DecodeFrozenModel(f.FrozenKind(), bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gf, ok := got.(*Frozen)
	if !ok {
		t.Fatalf("decoded model is %T, want *core.Frozen", got)
	}
	if gf.Name() != f.Name() || gf.NodeCount() != f.NodeCount() {
		t.Errorf("decoded identity = (%q, %d), want (%q, %d)",
			gf.Name(), gf.NodeCount(), f.Name(), f.NodeCount())
	}
	if len(f.links) == 0 {
		t.Fatal("fixture produced no rule-3 links; the round trip is not exercising them")
	}
	if !reflect.DeepEqual(gf.links, f.links) {
		t.Errorf("links diverged:\n got %+v\nwant %+v", gf.links, f.links)
	}
	ctxs := [][]string{
		{"A"}, {"A", "B"}, {"A", "B", "C"}, {"A2"}, {"A2", "B2"}, {"/x"}, {},
	}
	for _, ctx := range ctxs {
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Fatalf("ctx %v: decoded predicts %+v, original %+v", ctx, have, want)
		}
	}
}

// TestFrozenSnapshotRejectsCorrupt: truncations of the encoded form
// must error, never panic or yield a half-built model.
func TestFrozenSnapshotRejectsCorrupt(t *testing.T) {
	m := New(popularity.FixedGrades{"/a": 3}, Config{})
	m.TrainSequence([]string{"/a", "/b"})
	f := m.Freeze().(*Frozen)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := markov.DecodeFrozenModel(FrozenKind, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestModelEncodeDecode: a trained PB-PPM model is written as its
// frozen image, and the decoded image serves exactly what the live
// model predicts, with the live node count and rule-3 link count intact
// — the figures modelinfo reports from a model file.
func TestModelEncodeDecode(t *testing.T) {
	grades := popularity.FixedGrades{"home": 3, "page": 1, "hot": 3}
	m := New(grades, Config{RelProbCutoff: 0.01})
	for i := 0; i < 5; i++ {
		m.TrainSequence([]string{"home", "page", "hot"})
	}
	m.Optimize()
	if m.LinkCount() == 0 {
		t.Fatal("fixture produced no rule-3 links")
	}

	var buf bytes.Buffer
	if err := m.Freeze().(*Frozen).EncodeFrozen(&buf); err != nil {
		t.Fatalf("EncodeFrozen: %v", err)
	}
	got, err := markov.DecodeFrozenModel(FrozenKind, &buf)
	if err != nil {
		t.Fatalf("DecodeFrozenModel: %v", err)
	}
	links := got.NodeCount() - got.(*Frozen).Arena().NodeCount()
	if got.NodeCount() != m.NodeCount() || links != m.LinkCount() {
		t.Errorf("counts differ: %d/%d vs %d/%d", got.NodeCount(), links, m.NodeCount(), m.LinkCount())
	}
	for _, ctx := range [][]string{{"home"}, {"home", "page"}, {"page"}, {"hot"}, {"nope"}} {
		if want, have := m.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Errorf("ctx %v: decoded predicts %+v, live %+v", ctx, have, want)
		}
	}
}

// TestDecodeModelErrors: the PB-PPM decoder refuses junk and every
// well-formed image whose serving state is inconsistent — a corrupt
// rule-3 link candidate, or a node count below its own arena's.
func TestDecodeModelErrors(t *testing.T) {
	if _, err := markov.DecodeFrozenModel(FrozenKind, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	m := New(popularity.FixedGrades{"/a": 3}, Config{})
	m.TrainSequence([]string{"/a", "/b"})
	arena := m.Freeze().(*Frozen).Arena().Bytes()
	link := func(p markov.Prediction) []wireLinks {
		return []wireLinks{{Head: "/a", Preds: []markov.Prediction{p}}}
	}
	for name, img := range map[string]wireFrozen{
		"empty link URL":   {NodeCount: 2, Arena: arena, Links: link(markov.Prediction{})},
		"NaN link":         {NodeCount: 2, Arena: arena, Links: link(markov.Prediction{URL: "/b", Probability: math.NaN()})},
		"negative link":    {NodeCount: 2, Arena: arena, Links: link(markov.Prediction{URL: "/b", Probability: -1})},
		"nodes below tree": {NodeCount: 1, Arena: arena},
	} {
		var w bytes.Buffer
		if err := gob.NewEncoder(&w).Encode(img); err != nil {
			t.Fatal(err)
		}
		if _, err := markov.DecodeFrozenModel(FrozenKind, &w); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := wireFrozen{NodeCount: 2, Arena: arena}
	var w bytes.Buffer
	if err := gob.NewEncoder(&w).Encode(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := markov.DecodeFrozenModel(FrozenKind, &w); err != nil {
		t.Errorf("consistent image rejected: %v", err)
	}
}
