package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"math"
	"reflect"
	"strings"
	"testing"

	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// encodeImage returns the snapshot image of f without a ranking.
func encodeImage(t *testing.T, f *markov.FrozenTree) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := maintain.EncodeSnapshot(&w, 0, f, nil); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// decodeImage revives the model of a snapshot image.
func decodeImage(img []byte) (*markov.FrozenTree, error) {
	snap, err := maintain.DecodeSnapshot(img)
	if err != nil {
		return nil, err
	}
	return snap.Model, nil
}

// TestFrozenSnapshotRoundTrip: the frozen PB-PPM model — arena plus
// rule-3 links — must revive through the snapshot codec with identical
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

	img := encodeImage(t, f)
	got, err := decodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != f.Name() || got.NodeCount() != f.NodeCount() {
		t.Errorf("decoded identity = (%q, %d), want (%q, %d)",
			got.Name(), got.NodeCount(), f.Name(), f.NodeCount())
	}
	if !bytes.Equal(encodeImage(t, got), img) {
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
	valid := encodeImage(t, m.Freeze().(*markov.FrozenTree))
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := decodeImage(valid[:cut]); err == nil {
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

	got, err := decodeImage(encodeImage(t, m.Freeze().(*markov.FrozenTree)))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
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
	if _, err := decodeImage([]byte("junk")); err == nil {
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
		img := encodeImage(t, markov.NewFrozenTree(arena, markov.FrozenParams{Links: links}))
		if _, err := decodeImage(img); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), "corrupt candidate") {
			t.Errorf("%s: error %q does not name the candidate", name, err)
		}
	}

	// NewFrozenTree lifts a node count below the arena's, so that image
	// is made by rewriting the node count of an unnamed model's image:
	// the byte after the magic, the version, the empty name, the
	// threshold and the zero height cap. The trailer is then resealed.
	const nodesAt = len("pbppmSN4") + 8 + 1 + 8 + 1
	unnamed := encodeImage(t, markov.NewFrozenTree(arena, markov.FrozenParams{}))
	if int(unnamed[nodesAt]) != arena.NodeCount() {
		t.Fatalf("byte %d of the image is %d, not the node count %d", nodesAt, unnamed[nodesAt], arena.NodeCount())
	}
	for _, c := range []struct {
		nodes int
		ok    bool
	}{{arena.NodeCount() - 1, false}, {arena.NodeCount(), true}} {
		img := append([]byte{}, unnamed...)
		img[nodesAt] = byte(c.nodes)
		body := img[:len(img)-8]
		binary.LittleEndian.PutUint64(img[len(body):], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
		_, err := decodeImage(img)
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
