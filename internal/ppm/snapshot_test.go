package ppm

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

// TestModelEncodeDecode: both standard-PPM variants — a height-capped
// model and a blended one — are written as their frozen images, and
// each decoded image serves exactly what the live model predicts,
// contexts past the height cap included.
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
	for _, cfg := range []Config{{Height: 3}, {BlendOrders: true}} {
		m := New(cfg)
		for i := 0; i < 3; i++ {
			for _, s := range train {
				m.TrainSequence(s)
			}
		}
		var buf bytes.Buffer
		if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&buf); err != nil {
			t.Fatalf("%s: EncodeFrozen: %v", m.Name(), err)
		}
		got, err := markov.DecodeFrozen(&buf)
		if err != nil {
			t.Fatalf("%s: DecodeFrozen: %v", m.Name(), err)
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

// TestDecodeModelError: the decoder refuses junk and every truncation
// of a valid blended image.
func TestDecodeModelError(t *testing.T) {
	if _, err := markov.DecodeFrozen(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	m := New(Config{BlendOrders: true})
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
