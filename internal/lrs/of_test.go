package lrs

import (
	"bytes"
	"math/rand"
	"testing"

	"pbppm/internal/markov"
	"pbppm/internal/ppm"
)

// TestOfMatchesNew: an LRS model reading an unbounded standard model's
// trie freezes to the image and node count of one trained on the same
// sessions itself, when the sessions train the standard model alone,
// and also after a freeze in between: the repeating tree copied for
// that freeze is not served once the trie has learned more.
func TestOfMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	urls := []string{"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h", "/i", "/j", "/k", "/l"}
	var sessions [][]string
	for i := 0; i < 300; i++ {
		seq := make([]string, 1+rng.Intn(8))
		for j := range seq {
			seq[j] = urls[rng.Intn(len(urls))]
		}
		sessions = append(sessions, seq)
	}
	image := func(p markov.Predictor) []byte { return p.(markov.ArenaHolder).Arena().Bytes() }

	own := New(Config{})
	markov.TrainAll(own, sessions)
	std := ppm.New(ppm.Config{})
	of := Of(std, Config{})
	markov.TrainAll(std, sessions[:100])
	early := of.NodeCount()
	markov.TrainAll(std, sessions[100:])

	if early >= of.NodeCount() {
		t.Errorf("later training did not grow the repeating tree: %d then %d nodes", early, of.NodeCount())
	}
	if got, want := of.NodeCount(), own.NodeCount(); got != want {
		t.Errorf("NodeCount = %d, want %d", got, want)
	}
	if !bytes.Equal(image(of.Freeze()), image(own.Freeze())) {
		t.Error("Of froze to a different image than New trained on the same sessions")
	}
	if of.NodeCount() >= std.NodeCount() {
		t.Errorf("repeating tree has %d nodes, not fewer than the full trie's %d", of.NodeCount(), std.NodeCount())
	}
}

// TestOfRefusesHeightCappedModel: a height cap cuts repeating
// subsequences short, so reading a capped trie is a programmer error.
func TestOfRefusesHeightCappedModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Of accepted a 3-PPM")
		}
	}()
	Of(ppm.New(ppm.Config{Height: 3}), Config{})
}
