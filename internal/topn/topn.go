// Package topn implements the Top-10 server-initiated prefetching
// baseline the paper discusses in its related work (§6): Markatos &
// Chronaki's approach, where a Web server regularly pushes its most
// popular documents regardless of the requesting client's context.
//
// It implements the same Predictor interface as the PPM models, which
// lets the simulator and the experiment harness compare context-free
// popularity pushing against context-aware Markov prediction — the
// contrast motivating popularity-BASED (not popularity-ONLY)
// prefetching.
package topn

import (
	"pbppm/internal/markov"
	"pbppm/internal/popularity"
)

// n is how many of the most popular documents are candidates: the
// eponymous 10.
const n = 10

// Model is a Top-10 popularity pusher.
type Model struct {
	rank *popularity.Ranking
}

var _ markov.Predictor = (*Model)(nil)
var _ markov.BufferedPredictor = (*Model)(nil)

// New returns an empty Top-10 model.
func New() *Model {
	return &Model{rank: popularity.NewRanking()}
}

// Name identifies the model.
func (m *Model) Name() string { return "Top-10" }

// TrainSequence counts document accesses; sequence structure is
// ignored — this baseline has no notion of context.
func (m *Model) TrainSequence(seq []string) {
	for _, u := range seq {
		m.rank.Observe(u, 1)
	}
}

// Predict returns the top-10 popular documents with their relative
// popularity as the (context-free) probability estimate. The current
// document itself is excluded: pushing what was just served is free
// but useless. Predict only reads the ranking, so once training has
// ceased it is safe for unsynchronized concurrent use.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract (the ranking
// lookup itself still allocates its top-10 scratch).
func (m *Model) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	buf = buf[:0]
	cur := ""
	if len(context) > 0 {
		cur = context[len(context)-1]
	}
	for _, u := range m.rank.Top(n + 1) {
		if u == cur {
			continue
		}
		buf = append(buf, markov.Prediction{URL: u, Probability: m.rank.Relative(u), Order: 0})
		if len(buf) == n {
			break
		}
	}
	return buf
}

// NodeCount reports the model's storage requirement: one counter per
// distinct document, the cheapest of all the models.
func (m *Model) NodeCount() int { return m.rank.Len() }

// Ranking exposes the underlying popularity state.
func (m *Model) Ranking() *popularity.Ranking { return m.rank }
