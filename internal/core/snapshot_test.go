package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// TestFrozenSnapshotRoundTrip: the frozen PB-PPM model — arena plus
// rule-3 links — must revive through the frozen codec with identical
// predictions, the freeze-time node count intact, and an image that
// re-encodes byte for byte (the link table is written in URL order).
// This is the model image the snapshot-distribution channel ships
// between processes.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	// The paper's Figure 1 shape: the second max-grade URL lands deep in
	// the open branch and earns a rule-3 link under the heading URL.
	grades := popularity.FixedGrades{"A": 3, "A2": 3, "B": 2, "B2": 2, "C": 1, "C2": 1}
	m := New(grades, Config{Heights: [4]int{1, 2, 3, 4}})
	for i := 0; i < 6; i++ {
		m.TrainSequence([]string{"A", "B", "C", "A2", "B2", "C2"})
		m.TrainSequence([]string{"A", "B", "C2"})
	}
	if m.LinkCount() == 0 {
		t.Fatal("fixture produced no rule-3 links; the round trip is not exercising them")
	}
	f := m.Freeze().(*markov.FrozenTree)

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := markov.DecodeFrozen(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != f.Name() || got.NodeCount() != f.NodeCount() {
		t.Errorf("decoded identity = (%q, %d), want (%q, %d)",
			got.Name(), got.NodeCount(), f.Name(), f.NodeCount())
	}
	var again bytes.Buffer
	if err := got.EncodeFrozen(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Error("decoded model re-encodes to a different image")
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
	var w bytes.Buffer
	if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := markov.DecodeFrozen(bytes.NewReader(valid[:cut])); err == nil {
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
	if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&buf); err != nil {
		t.Fatalf("EncodeFrozen: %v", err)
	}
	got, err := markov.DecodeFrozen(&buf)
	if err != nil {
		t.Fatalf("DecodeFrozen: %v", err)
	}
	links := got.NodeCount() - got.Arena().NodeCount()
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
	if _, err := markov.DecodeFrozen(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	m := New(popularity.FixedGrades{"/a": 3}, Config{})
	m.TrainSequence([]string{"/a", "/b"})
	arena := m.Freeze().(*markov.FrozenTree).Arena()
	link := func(p markov.Prediction) map[string][]markov.Prediction {
		return map[string][]markov.Prediction{"/a": {p}}
	}
	for name, links := range map[string]map[string][]markov.Prediction{
		"empty link URL": link(markov.Prediction{}),
		"NaN link":       link(markov.Prediction{URL: "/b", Probability: math.NaN()}),
		"negative link":  link(markov.Prediction{URL: "/b", Probability: -1}),
	} {
		var w bytes.Buffer
		if err := markov.NewFrozenTree(arena, markov.FrozenParams{Links: links}).EncodeFrozen(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := markov.DecodeFrozen(&w); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "corrupt candidate") {
			t.Errorf("%s: error %q does not name the candidate", name, err)
		}
	}

	// NewFrozenTree lifts a node count below the arena's, so that image
	// is written by hand. gob matches fields by name: image decodes as a
	// frozen-tree image with only these two fields set.
	type image struct {
		NodeCount int
		Arena     []byte
	}
	for _, c := range []struct {
		nodes int
		ok    bool
	}{{arena.NodeCount() - 1, false}, {arena.NodeCount(), true}} {
		var w bytes.Buffer
		if err := gob.NewEncoder(&w).Encode(image{NodeCount: c.nodes, Arena: arena.Bytes()}); err != nil {
			t.Fatal(err)
		}
		_, err := markov.DecodeFrozen(&w)
		switch {
		case c.ok && err != nil:
			t.Errorf("consistent image (%d nodes) rejected: %v", c.nodes, err)
		case !c.ok && err == nil:
			t.Errorf("node count %d below the arena's %d accepted", c.nodes, arena.NodeCount())
		case !c.ok && !strings.Contains(err.Error(), "node count"):
			t.Errorf("node count %d: error %q does not name the node count", c.nodes, err)
		}
	}
}
