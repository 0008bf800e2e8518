package ppm

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/maintain"
	"pbppm/internal/markov"
)

// encodeImage returns the snapshot image of m's frozen model without a
// ranking.
func encodeImage(t *testing.T, m markov.Freezer) []byte {
	t.Helper()
	var w bytes.Buffer
	if err := maintain.EncodeSnapshot(&w, 0, m.Freeze().(*markov.FrozenTree), nil); err != nil {
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
		got, err := decodeImage(encodeImage(t, m))
		if err != nil {
			t.Fatalf("%s: DecodeSnapshot: %v", m.Name(), err)
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
	if _, err := decodeImage([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
	m := New(Config{BlendOrders: true})
	m.TrainSequence([]string{"/a", "/b"})
	valid := encodeImage(t, m)
	for cut := 0; cut < len(valid); cut += 5 {
		if _, err := decodeImage(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
