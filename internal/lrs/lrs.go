// Package lrs implements the Longest-Repeating-Subsequences PPM model
// of Pitkow & Pirolli (USENIX '99), the space-optimized baseline in
// §3.2 of the paper: only URL sequences accessed at least twice are
// kept in the prediction tree.
//
// Construction follows the paper's description — "each branch in the
// model is further cut and paste into multiple sub-branches starting
// from different URLs", i.e. every suffix of each repeating pattern
// appears as its own branch. We obtain exactly that tree by building
// the full suffix trie of the training sessions and pruning every node
// whose occurrence count is below the repeat threshold: a suffix of a
// repeating subsequence is itself repeating, so all sub-branches
// survive with their true occurrence counts.
package lrs

import (
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

func (c Config) threshold() float64 { return ppm.ThresholdOrDefault(c.Threshold) }

// Model is an LRS-PPM predictor.
type Model struct {
	cfg Config
	// full is the complete suffix trie including count-1 nodes; it is
	// retained so that later training can promote sequences across the
	// repeat threshold.
	full *markov.Tree
	// pruned is the repeating-only prediction tree, rebuilt lazily
	// after training.
	pruned *markov.Tree
	dirty  bool
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)

// New returns an empty LRS model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg, full: markov.NewTree(), pruned: markov.NewTree()}
}

// Name identifies the model.
func (m *Model) Name() string { return "LRS-PPM" }

// TrainSequence inserts every suffix of seq into the underlying suffix
// trie. The prediction tree is rebuilt lazily on the next Predict or
// NodeCount call.
func (m *Model) TrainSequence(seq []string) {
	m.full.InsertSuffixes(seq, 0) // unbounded: repeating subsequences stay whole
	m.dirty = true
}

// rebuild materializes the repeating-only prediction tree. The copy
// shares the full trie's symbol table (CopyIf), so it costs no URL
// duplication; that is safe because the model's contract already
// forbids training concurrently with other methods.
func (m *Model) rebuild() {
	if !m.dirty {
		return
	}
	m.dirty = false
	m.pruned = m.full.CopyIf(func(_, child uint32) bool {
		return m.full.Count(child) >= repeatThreshold
	})
}

// Predict finds the deepest repeating-sequence node matching the
// longest suffix of the context — the paper's "longest matching method"
// — and returns its children above the probability threshold. It
// answers from a snapshot frozen for the call; serve markov.Freeze(m)
// instead.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.Freeze().Predict(context)
}

// Freeze materializes the repeating-only prediction tree and returns
// its immutable arena-backed snapshot, the model's one predict
// implementation: no per-node GC load and no allocations on the serving
// path. The full suffix trie is a training-time artifact and is not
// frozen.
func (m *Model) Freeze() markov.Predictor {
	m.rebuild()
	return markov.NewFrozenTree(m.pruned.Freeze(), markov.FrozenParams{Name: m.Name(), Threshold: m.cfg.threshold()})
}

// NodeCount reports the storage requirement of the repeating-only tree,
// the paper's space metric for LRS. The retained full trie is a
// training-time artifact and is not part of the served model.
func (m *Model) NodeCount() int {
	m.rebuild()
	return m.pruned.NodeCount()
}

// Patterns returns the longest repeating subsequences currently stored:
// every root-to-leaf path of the repeating-only tree, with the leaf's
// occurrence count. Paths are emitted in deterministic (sorted) order.
// This is primarily a diagnostic and test hook.
func (m *Model) Patterns() []Pattern {
	m.rebuild()
	var out []Pattern
	m.pruned.Walk(func(path []string, n uint32) {
		if m.pruned.IsLeaf(n) {
			p := make([]string, len(path))
			copy(p, path)
			out = append(out, Pattern{URLs: p, Count: m.pruned.Count(n)})
		}
	})
	return out
}

// Pattern is one repeating subsequence kept by the model.
type Pattern struct {
	URLs  []string
	Count int64
}

// Tree exposes the repeating-only prediction tree for diagnostics.
func (m *Model) Tree() *markov.Tree {
	m.rebuild()
	return m.pruned
}
