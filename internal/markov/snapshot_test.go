package markov

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFrozenTreeSnapshotRoundTrip: encoding a frozen tree and decoding
// it must reproduce identical predictions — the invariant the
// snapshot-distribution channel rests on.
func TestFrozenTreeSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randomArenaTree(rng, 600, 0)
	f := NewFrozenTree(tr.Freeze(), FrozenParams{Name: "PPM-test", Threshold: 0.1, ClampHeight: 5})

	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozen(bytes.NewReader(w.Bytes()))
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
	if !bytes.Equal(f.Arena().Bytes(), got.Arena().Bytes()) {
		t.Fatal("round trip changed the arena image")
	}
}

// TestDecodeFrozenModelRejectsCorrupt: truncated gob, and a valid gob
// carrying a corrupted arena — for a longest-match and a blended
// image — must all error (never panic).
func TestDecodeFrozenModelRejectsCorrupt(t *testing.T) {
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	f := NewFrozenTree(tr.Freeze(), FrozenParams{Name: "t"})
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()

	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := DecodeFrozen(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Corrupt the arena inside an otherwise valid envelope: re-encode
	// with a broken image.
	for _, blend := range []bool{false, true} {
		bad := wireFrozenTree{Name: "t", Blend: blend, Arena: []byte(arenaMagic + " not really an arena")}
		var wb bytes.Buffer
		if err := gob.NewEncoder(&wb).Encode(bad); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFrozen(bytes.NewReader(wb.Bytes())); err == nil {
			t.Fatalf("corrupt embedded arena accepted (blend %v)", blend)
		}
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

	f := NewFrozenTree(tr.Freeze(), FrozenParams{Name: "tree"})
	var buf bytes.Buffer
	if err := f.EncodeFrozen(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeFrozen(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	a := got.Arena()
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
	f := NewFrozenTree(NewTree().Freeze(), FrozenParams{Name: "empty", Threshold: 0.25})
	var w bytes.Buffer
	if err := f.EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrozen(bytes.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NodeCount() != 0 {
		t.Errorf("decoded empty tree has %d nodes", got.NodeCount())
	}
	if ps := got.Predict([]string{"/a"}); len(ps) != 0 {
		t.Errorf("decoded empty tree predicts %+v", ps)
	}
	if !bytes.Equal(f.Arena().Bytes(), got.Arena().Bytes()) {
		t.Fatal("round trip changed the empty arena image")
	}
}

// TestDecodeError: the decoder refuses bytes that are not a frozen-tree
// image at all, and every well-formed image whose serving state is
// inconsistent — a NaN threshold, a corrupt extra candidate, or a node
// count below its own arena's. Negative thresholds and clamp heights
// stay accepted: they act as 0 and unbounded.
func TestDecodeError(t *testing.T) {
	for _, junk := range []string{"junk", arenaMagic, "\x00\x01\x02"} {
		if _, err := DecodeFrozen(strings.NewReader(junk)); err == nil {
			t.Errorf("DecodeFrozen(%q) succeeded", junk)
		}
	}
	tr := NewTree()
	tr.Insert([]string{"/a", "/b"}, 0, 1)
	arena := tr.Freeze().Bytes()
	link := func(p Prediction) []wireLinks {
		return []wireLinks{{Head: "/a", Preds: []Prediction{p}}}
	}
	for name, c := range map[string]struct {
		img  wireFrozenTree
		want string
	}{
		"NaN threshold":    {wireFrozenTree{NodeCount: 2, Threshold: math.NaN(), Arena: arena}, "NaN threshold"},
		"empty link URL":   {wireFrozenTree{NodeCount: 2, Arena: arena, Links: link(Prediction{})}, "corrupt candidate"},
		"NaN link":         {wireFrozenTree{NodeCount: 2, Arena: arena, Links: link(Prediction{URL: "/b", Probability: math.NaN()})}, "corrupt candidate"},
		"negative link":    {wireFrozenTree{NodeCount: 2, Arena: arena, Links: link(Prediction{URL: "/b", Probability: -1})}, "corrupt candidate"},
		"nodes below tree": {wireFrozenTree{NodeCount: 1, Arena: arena}, "node count"},
	} {
		var w bytes.Buffer
		if err := gob.NewEncoder(&w).Encode(c.img); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeFrozen(&w); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", name, err, c.want)
		}
	}
	ok := wireFrozenTree{NodeCount: 3, Threshold: -1, ClampHeight: -1, Arena: arena,
		Links: link(Prediction{URL: "/c", Probability: 0.5, Order: 1})}
	var w bytes.Buffer
	if err := gob.NewEncoder(&w).Encode(ok); err != nil {
		t.Fatal(err)
	}
	f, err := DecodeFrozen(&w)
	if err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}
	want := []Prediction{{URL: "/b", Probability: 1, Order: 1}, {URL: "/c", Probability: 0.5, Order: 1}}
	if got := f.Predict([]string{"/a"}); f.NodeCount() != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("decoded model: %d nodes, predicts %+v; want 3 nodes, %+v", f.NodeCount(), got, want)
	}
}
