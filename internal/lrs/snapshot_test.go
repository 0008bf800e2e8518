package lrs

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

// lrsSessions repeats some subsequences so the repeating-only tree keeps
// them and drops the rest.
var lrsSessions = [][]string{
	{"/a", "/b", "/c", "/d"},
	{"/a", "/b", "/c", "/e"},
	{"/x", "/a", "/b"},
	{"/once", "/only"},
}

// TestModelEncodeDecode: an LRS model is written as the frozen image of
// its repeating-only tree (the full suffix trie is training state and
// is not written), and the decoded image serves exactly what the live
// model predicts.
func TestModelEncodeDecode(t *testing.T) {
	m := New(Config{})
	for _, s := range lrsSessions {
		m.TrainSequence(s)
	}
	got, err := decodeImage(encodeImage(t, m))
	if err != nil {
		t.Fatalf("DecodeSnapshot: %v", err)
	}
	if got.Name() != m.Name() || got.NodeCount() != m.NodeCount() {
		t.Errorf("decoded %q with %d nodes, want %q with %d", got.Name(), got.NodeCount(), m.Name(), m.NodeCount())
	}
	for _, ctx := range [][]string{{"/a"}, {"/a", "/b"}, {"/x", "/a", "/b"}, {"/once"}, {"/b", "/c"}} {
		if want, have := m.Predict(ctx), got.Predict(ctx); !reflect.DeepEqual(want, have) {
			t.Errorf("ctx %v: decoded predicts %+v, live %+v", ctx, have, want)
		}
	}
}

// TestDecodeModelError: every truncation of an LRS image is refused.
func TestDecodeModelError(t *testing.T) {
	m := New(Config{})
	for _, s := range lrsSessions {
		m.TrainSequence(s)
	}
	valid := encodeImage(t, m)
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decodeImage(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
}
