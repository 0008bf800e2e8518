// Package ppm implements the standard Prediction-by-Partial-Match model
// reviewed in §3.2 of the paper: a Markov prediction tree in which every
// position of every training session roots a branch, and each branch is
// capped at a fixed height. Height 3 reproduces the paper's practical
// "3-PPM" configuration; an unbounded height reproduces the accuracy
// upper bound used in the comparative evaluation.
package ppm

import (
	"fmt"

	"pbppm/internal/markov"
)

// Config parameterizes the standard model.
type Config struct {
	// Height caps the branch length (number of nodes per branch).
	// Height <= 0 means unbounded, the paper's upper-bound setup.
	Height int
	// Threshold is the minimum conditional probability for a prefetch
	// candidate; zero selects the paper's 0.25.
	Threshold float64
	// BlendOrders switches prediction from the paper's longest-match
	// method to a variable-order blend: candidates are collected from
	// every matching context order, each weighted by the matched
	// context's evidence mass, and a URL keeps its highest-confidence
	// estimate. The paper lists "variable orders of Markov models" as
	// unexplored territory; this implements that extension. The frozen
	// model finds those orders on the suffix-link chain of a session's
	// match state, so it streams like the longest-match models.
	BlendOrders bool
}

// DefaultThreshold is the prediction probability threshold used for all
// models in the paper (§4.1).
const DefaultThreshold = 0.25

// NoThreshold is the sentinel for a genuine zero probability threshold
// (every candidate passes). A zero Config.Threshold keeps selecting
// DefaultThreshold — the zero Config value must stay the paper's setup
// — so zero itself is expressed as any negative value.
const NoThreshold = -1

// ThresholdOrDefault resolves a configured prediction threshold the
// same way for all three models (ppm, lrs, popularity-based): zero
// selects DefaultThreshold, negative (NoThreshold) selects a genuine
// zero, positive values pass through.
func ThresholdOrDefault(t float64) float64 {
	switch {
	case t == 0:
		return DefaultThreshold
	case t < 0:
		return 0
	default:
		return t
	}
}

func (c Config) threshold() float64 { return ThresholdOrDefault(c.Threshold) }

// Model is a standard PPM predictor.
type Model struct {
	cfg  Config
	tree *markov.Tree
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)

// New returns an empty standard PPM model.
func New(cfg Config) *Model {
	return &Model{cfg: cfg, tree: markov.NewTree()}
}

// Name identifies the model, including its height configuration, e.g.
// "3-PPM" or "PPM" for the unbounded variant.
func (m *Model) Name() string {
	if m.cfg.Height > 0 {
		return fmt.Sprintf("%d-PPM", m.cfg.Height)
	}
	return "PPM"
}

// TrainSequence inserts every suffix of seq as a branch capped at the
// configured height, so that any position can serve as a prediction
// context.
func (m *Model) TrainSequence(seq []string) {
	for i := range seq {
		m.tree.Insert(seq[i:], m.cfg.Height, 1)
	}
}

// Predict finds the deepest node matching the longest suffix of the
// context and returns its children above the probability threshold
// (with BlendOrders, the blend over every matching order). It answers
// from a snapshot frozen for the call; serve markov.Freeze(m) instead.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.Freeze().Predict(context)
}

// Freeze returns the immutable arena-backed snapshot of the trained
// model, the model's one predict implementation: no per-node GC load,
// and no allocations on the serving path. A height-H model's snapshot
// matches at most the trailing H-1 URLs, since longer contexts can
// never match and still leave room for a predicted child. A BlendOrders
// model freezes with the blend flag, so its snapshot blends the orders
// along the match's suffix-link chain, weighting each order's
// candidates by 1 - 1/(1+count), and streams like any other.
func (m *Model) Freeze() markov.Predictor {
	return markov.NewFrozenTree(m.tree.Freeze(), markov.FrozenParams{
		Name:        m.Name(),
		Threshold:   m.cfg.threshold(),
		ClampHeight: m.cfg.Height,
		Blend:       m.cfg.BlendOrders,
	})
}

// NodeCount reports the storage requirement in URL nodes.
func (m *Model) NodeCount() int { return m.tree.NodeCount() }

// Tree exposes the underlying prediction tree for diagnostics.
func (m *Model) Tree() *markov.Tree { return m.tree }
