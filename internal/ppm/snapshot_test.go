package ppm

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestModelEncodeDecode: both standard-PPM variants are written as
// their frozen images — a height-capped model as the generic frozen
// tree, a blended one as its own kind — and each decoded image serves
// exactly what the live model predicts, contexts past the height cap
// included.
func TestModelEncodeDecode(t *testing.T) {
	train := [][]string{
		{"/a", "/b", "/c", "/d"},
		{"/a", "/b", "/e"},
		{"/x", "/b", "/c"},
		{"/a", "/b", "/c", "/f"},
	}
	ctxs := [][]string{
		{"/a"}, {"/a", "/b"}, {"/x", "/b"}, {"/q", "/a", "/b", "/c"}, {"/b", "/c"}, {"/nope"}, {},
	}
	for _, c := range []struct {
		cfg  Config
		kind string
	}{
		{Config{Height: 3}, markov.FrozenTreeKind},
		{Config{BlendOrders: true}, FrozenBlendedKind},
	} {
		m := New(c.cfg)
		for i := 0; i < 3; i++ {
			for _, s := range train {
				m.TrainSequence(s)
			}
		}
		enc := m.Freeze().(markov.FrozenEncoder)
		if enc.FrozenKind() != c.kind {
			t.Fatalf("%s freezes to kind %q, want %q", m.Name(), enc.FrozenKind(), c.kind)
		}
		var buf bytes.Buffer
		if err := enc.EncodeFrozen(&buf); err != nil {
			t.Fatalf("%s: EncodeFrozen: %v", m.Name(), err)
		}
		got, err := markov.DecodeFrozenModel(c.kind, &buf)
		if err != nil {
			t.Fatalf("%s: DecodeFrozenModel: %v", m.Name(), err)
		}
		if got.Name() != m.Name() || got.NodeCount() != m.NodeCount() {
			t.Errorf("decoded %q with %d nodes, want %q with %d", got.Name(), got.NodeCount(), m.Name(), m.NodeCount())
		}
		for _, ctx := range ctxs {
			if want, have := m.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
				t.Errorf("%s ctx %v: decoded predicts %+v, live %+v", m.Name(), ctx, have, want)
			}
		}
	}
}

// TestDecodeModelError: the blended decoder refuses junk, every
// truncation of a valid image, and a well-formed image carrying a
// corrupt arena.
func TestDecodeModelError(t *testing.T) {
	if _, err := markov.DecodeFrozenModel(FrozenBlendedKind, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	m := New(Config{BlendOrders: true})
	m.TrainSequence([]string{"/a", "/b"})
	var w bytes.Buffer
	if err := m.Freeze().(markov.FrozenEncoder).EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := markov.DecodeFrozenModel(FrozenBlendedKind, bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(wireFrozenBlended{Name: "PPM", Arena: []byte("pbppmAR2 not an arena")}); err != nil {
		t.Fatal(err)
	}
	if _, err := markov.DecodeFrozenModel(FrozenBlendedKind, &bad); err == nil {
		t.Error("corrupt embedded arena accepted")
	}
}
