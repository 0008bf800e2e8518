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
var _ markov.BufferedPredictor = (*Model)(nil)
var _ markov.Freezer = (*Model)(nil)
var _ markov.UtilizationReporter = (*Model)(nil)
var _ markov.ShardedTrainer = (*Model)(nil)
var _ markov.IncrementalTrainer = (*Model)(nil)

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
// context and returns its children above the probability threshold.
// The matched path is marked used for the utilization metric.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract.
func (m *Model) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	ctx := context
	if m.cfg.Height > 0 && len(ctx) >= m.cfg.Height {
		// With a height-H tree, contexts longer than H-1 can never
		// match and still leave room for a predicted child.
		ctx = ctx[len(ctx)-(m.cfg.Height-1):]
	}
	if m.cfg.BlendOrders {
		return append(buf[:0], m.predictBlended(ctx)...)
	}
	n, order := m.tree.LongestMatch(ctx)
	if n == nil {
		return buf[:0]
	}
	m.tree.MarkPath(ctx[len(ctx)-order:])
	return m.tree.PredictFromInto(n, m.cfg.threshold(), order, buf)
}

// Freeze returns the immutable arena-backed snapshot of the trained
// model: identical predictions, no per-node GC load, and no allocations
// on the serving path. A BlendOrders model freezes with the blend flag,
// so its snapshot blends the orders along the match's suffix-link
// chain and streams like any other.
func (m *Model) Freeze() markov.Predictor {
	return markov.NewFrozenTree(m.tree.Freeze(), markov.FrozenParams{
		Name:        m.Name(),
		Threshold:   m.cfg.threshold(),
		ClampHeight: m.cfg.Height,
		Blend:       m.cfg.BlendOrders,
	})
}

// predictBlended combines candidates across every matching order. A
// higher-order context is sparser but more specific; weighting each
// order's conditional probabilities by 1 - 1/(1+count) (an escape-style
// confidence in the context's evidence) lets confident deep contexts
// dominate while order-1 statistics fill in.
//
// Candidates are collected without usage marks and only the ones that
// survive the final blend threshold are marked: the intermediate
// per-order candidate sets are scratch state, and marking them would
// inflate the Figure-2 path-utilization metric with URLs that were
// never actually predicted.
func (m *Model) predictBlended(ctx []string) []markov.Prediction {
	type candidate struct {
		pred markov.Prediction
		node *markov.Node
	}
	best := make(map[string]candidate)
	for i := 0; i < len(ctx); i++ {
		n := m.tree.Match(ctx[i:])
		if n == nil || n.Count == 0 {
			continue
		}
		order := len(ctx) - i
		m.tree.MarkPath(ctx[i:])
		confidence := 1 - 1/(1+float64(n.Count))
		m.tree.EachChild(n, func(url string, c *markov.Node) bool {
			p := markov.Prediction{
				URL:         url,
				Probability: float64(c.Count) / float64(n.Count) * confidence,
				Order:       order,
			}
			if b, ok := best[url]; !ok || p.Probability > b.pred.Probability {
				best[url] = candidate{pred: p, node: c}
			}
			return true
		})
	}
	thr := m.cfg.threshold()
	out := make([]markov.Prediction, 0, len(best))
	for _, c := range best {
		if c.pred.Probability >= thr {
			m.tree.MarkPredicted(c.node)
			out = append(out, c.pred)
		}
	}
	if len(out) == 0 {
		return nil
	}
	markov.SortPredictions(out)
	return out
}

// NewShard returns an empty model with the same configuration, for
// markov.TrainAllParallel.
func (m *Model) NewShard() markov.Predictor { return New(m.cfg) }

// MergeShard folds a shard trained by NewShard back into the model.
// Counts are additive, so shard-trained and serially-trained models are
// equivalent.
func (m *Model) MergeShard(shard markov.Predictor) {
	m.tree.Merge(shard.(*Model).tree)
}

// Clone returns a deep copy of the model for incremental maintenance:
// merging a delta shard into the clone never mutates the receiver.
func (m *Model) Clone() markov.Predictor {
	return &Model{cfg: m.cfg, tree: m.tree.Clone()}
}

// NodeCount reports the storage requirement in URL nodes.
func (m *Model) NodeCount() int { return m.tree.NodeCount() }

// Utilization reports the fraction of stored root-to-leaf paths used by
// predictions since the last ResetUsage.
func (m *Model) Utilization() float64 { return m.tree.Utilization() }

// ResetUsage clears utilization marks.
func (m *Model) ResetUsage() { m.tree.ResetUsage() }

// Tree exposes the underlying prediction tree for diagnostics.
func (m *Model) Tree() *markov.Tree { return m.tree }
