package markov

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFrozenTreeSnapshotRoundTrip: encoding a frozen tree and decoding
// it through the kind registry must reproduce identical predictions —
// the invariant the snapshot-distribution channel rests on.
func TestFrozenTreeSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomArenaTree(rng, 600, 0)
	f := NewFrozenTree(tr.Freeze(), "PPM-test", 0.1, 5)

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozenModel(f.FrozenKind(), bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "PPM-test" {
		t.Errorf("decoded name = %q", got.Name())
	}
	for i := 0; i < 500; i++ {
		ctx := make([]string, rng.Intn(6))
		for j := range ctx {
			ctx[j] = url(rng.Intn(40))
		}
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Fatalf("ctx %v: decoded model predicts %+v, original %+v", ctx, have, want)
		}
	}
	// The arena image itself must revive bit-identical.
	if !bytes.Equal(f.Arena().Bytes(), got.(*FrozenTree).Arena().Bytes()) {
		t.Fatal("round trip changed the arena image")
	}
}

// TestDecodeFrozenModelUnknownKind: a kind the process has not linked a
// decoder for must error with the registered kinds listed, not panic.
func TestDecodeFrozenModelUnknownKind(t *testing.T) {
	_, err := DecodeFrozenModel("nonexistent/kind", bytes.NewReader(nil))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	if !strings.Contains(err.Error(), FrozenTreeKind) {
		t.Errorf("error %v does not list registered kinds", err)
	}
}

// TestDecodeFrozenModelRejectsCorrupt: truncated gob, and a valid gob
// carrying a corrupted arena, must both error (never panic).
func TestDecodeFrozenModelRejectsCorrupt(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), "t", 0, 0)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()

	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := DecodeFrozenModel(FrozenTreeKind, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Corrupt the arena inside an otherwise valid envelope: re-encode
	// with a broken image.
	bad := wireFrozenTree{Name: "t", Arena: []byte("pbppmAR2 not really an arena")}
	var wb bytes.Buffer
	if err := gob.NewEncoder(&wb).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrozenModel(FrozenTreeKind, bytes.NewReader(wb.Bytes())); err == nil {
		t.Fatal("corrupt embedded arena accepted")
	}
}

// TestEncodeDecode: a trained tree's one encoding is its frozen image.
// Decoding it must give back every trained path with its count, the
// same node and root counts, and the same predictions.
func TestEncodeDecode(t *testing.T) {
	tr := NewTree()
	tr.Insert(seq("a", "b", "c"), 0, 3)
	tr.Insert(seq("a", "d"), 0, 1)
	tr.Insert(seq("z"), 0, 7)

	f := NewFrozenTree(tr.Freeze(), "tree", 0, 0)
	var buf bytes.Buffer
	if err := f.EncodeFrozen(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFrozenModel(FrozenTreeKind, &buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	a := got.(*FrozenTree).Arena()
	if a.NodeCount() != tr.NodeCount() || a.Count(0) != tr.Root.Count {
		t.Errorf("counts differ after round trip: %d nodes, root %d; want %d, %d",
			a.NodeCount(), a.Count(0), tr.NodeCount(), tr.Root.Count)
	}
	tr.Walk(func(path []string, n *Node) {
		node, ok := a.Match(path)
		if !ok {
			t.Errorf("path %v lost in round trip", path)
			return
		}
		if a.Count(node) != n.Count {
			t.Errorf("path %v: count %d after round trip, want %d", path, a.Count(node), n.Count)
		}
	})
	for _, ctx := range [][]string{seq("a"), seq("a", "b"), seq("z"), seq("x", "a"), seq("q")} {
		if want, have := f.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Errorf("ctx %v: decoded model predicts %+v, original %+v", ctx, have, want)
		}
	}
}

// TestEncodeDecodeEmptyTree: an untrained tree still freezes to a valid
// image (the pseudo-root alone) that survives the frozen-tree codec and
// predicts nothing.
func TestEncodeDecodeEmptyTree(t *testing.T) {
	f := NewFrozenTree(NewTree().Freeze(), "empty", 0.25, 0)
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozenModel(FrozenTreeKind, bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != 0 {
		t.Errorf("decoded empty tree has %d nodes", got.NodeCount())
	}
	if ps := got.Predict([]string{"/a"}); len(ps) != 0 {
		t.Errorf("decoded empty tree predicts %+v", ps)
	}
	if !bytes.Equal(f.Arena().Bytes(), got.(*FrozenTree).Arena().Bytes()) {
		t.Fatal("round trip changed the empty arena image")
	}
}

// TestDecodeError: bytes that are not a frozen-tree image at all are
// refused.
func TestDecodeError(t *testing.T) {
	for _, junk := range []string{"junk", arenaMagic, "\x00\x01\x02"} {
		if _, err := DecodeFrozenModel(FrozenTreeKind, strings.NewReader(junk)); err == nil {
			t.Errorf("DecodeFrozenModel(%q) succeeded", junk)
		}
	}
}
