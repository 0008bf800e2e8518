package lrs

import (
	"bytes"
	"reflect"
	"testing"

	"pbppm/internal/markov"
)

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
	var buf bytes.Buffer
	if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&buf); err != nil {
		t.Fatalf("EncodeFrozen: %v", err)
	}
	got, err := markov.DecodeFrozen(&buf)
	if err != nil {
		t.Fatalf("DecodeFrozen: %v", err)
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
	var w bytes.Buffer
	if err := m.Freeze().(*markov.FrozenTree).EncodeFrozen(&w); err != nil {
		t.Fatal(err)
	}
	valid := w.Bytes()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := markov.DecodeFrozen(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
}
