// Package lrs implements the Longest-Repeating-Subsequences PPM model
// of Pitkow & Pirolli (USENIX '99), the space-optimized baseline in
// §3.2 of the paper: only URL sequences accessed at least twice are
// kept in the prediction tree.
//
// Construction follows the paper's description — "each branch in the
// model is further cut and paste into multiple sub-branches starting
// from different URLs", i.e. every suffix of each repeating pattern
// appears as its own branch. We obtain exactly that tree from the full
// suffix trie of the training sessions, an unbounded standard PPM's
// (Of reads one), by dropping every node whose occurrence count is
// below the repeat threshold: a suffix of a repeating subsequence is
// itself repeating, so all sub-branches survive with their true
// occurrence counts.
package lrs

import (
	"fmt"

	"pbppm/internal/markov"
	"pbppm/internal/ppm"
)

// repeatThreshold is the minimum occurrence count for a sequence to be
// considered "frequently repeating": the paper's 2.
const repeatThreshold = 2

// Config parameterizes the LRS model.
type Config struct {
	// Threshold is the minimum conditional probability for a prefetch
	// candidate; zero selects the paper's 0.25.
	Threshold float64
}

// Model is an LRS-PPM predictor.
type Model struct {
	cfg Config
	// std holds the full suffix trie, count-1 nodes included, so later
	// training can promote sequences across the repeat threshold.
	std *ppm.Model
	// repeating is std's trie cut to its repeating nodes at root count
	// seen; every trained suffix adds 1 to the root count.
	repeating *markov.Tree
	seen      int64
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)

// New returns an empty LRS model over an unbounded standard model of
// its own.
func New(cfg Config) *Model { return Of(ppm.New(ppm.Config{}), cfg) }

// Of returns the LRS model that reads std's suffix trie and serves its
// sequences that repeat at least twice; training either model trains
// that trie. std must be unbounded, as a height cap cuts repeating
// subsequences short: Of panics otherwise, a programmer error.
func Of(std *ppm.Model, cfg Config) *Model {
	if name := std.Name(); name != "PPM" {
		panic(fmt.Sprintf("lrs: %s is height-capped; LRS needs the unbounded standard model's trie", name))
	}
	return &Model{cfg: cfg, std: std}
}

// Name identifies the model.
func (m *Model) Name() string { return "LRS-PPM" }

// TrainSequence inserts every suffix of seq into the standard model's
// suffix trie.
func (m *Model) TrainSequence(seq []string) { m.std.TrainSequence(seq) }

// Predict finds the deepest repeating-sequence node matching the
// longest suffix of the context — the paper's "longest matching method"
// — and returns its children above the probability threshold. It
// answers from a snapshot frozen for the call; serve markov.Freeze(m)
// instead.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.Freeze().Predict(context)
}

// Freeze returns the immutable arena-backed snapshot of the
// repeating-only prediction tree, the model's one predict
// implementation: no per-node GC load and no allocations on the serving
// path. The full suffix trie is a training-time artifact and is not
// frozen.
func (m *Model) Freeze() markov.Predictor {
	return markov.NewFrozenTree(m.Tree().Freeze(), markov.FrozenParams{Name: m.Name(), Threshold: ppm.ThresholdOrDefault(m.cfg.Threshold)})
}

// NodeCount reports the storage requirement of the repeating-only tree,
// the paper's space metric for LRS. The full trie is a training-time
// artifact and is not part of the served model.
func (m *Model) NodeCount() int { return m.Tree().NodeCount() }

// Patterns returns the longest repeating subsequences currently stored:
// every root-to-leaf path of the repeating-only tree, with the leaf's
// occurrence count. Paths are emitted in deterministic (sorted) order.
// This is primarily a diagnostic and test hook.
func (m *Model) Patterns() []Pattern {
	tr := m.Tree()
	var out []Pattern
	tr.Walk(func(path []string, n uint32) {
		if tr.IsLeaf(n) {
			p := make([]string, len(path))
			copy(p, path)
			out = append(out, Pattern{URLs: p, Count: tr.Count(n)})
		}
	})
	return out
}

// Pattern is one repeating subsequence kept by the model.
type Pattern struct {
	URLs  []string
	Count int64
}

// Tree returns the repeating-only prediction tree, copied again from
// the full trie only after training. The copy shares the trie's symbol
// table (CopyIf), which is safe because training must not run
// concurrently with other methods.
func (m *Model) Tree() *markov.Tree {
	full := m.std.Tree()
	if seen := full.Count(markov.Root); m.repeating == nil || seen != m.seen {
		m.repeating = full.CopyIf(func(_, child uint32) bool {
			return full.Count(child) >= repeatThreshold
		})
		m.seen = seen
	}
	return m.repeating
}
