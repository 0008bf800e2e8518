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
var _ markov.Freezer = (*Model)(nil)

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
// popularity as the (context-free) probability estimate, answering from
// a fresh Freeze. The current document itself is excluded: pushing what
// was just served is free but useless.
func (m *Model) Predict(context []string) []markov.Prediction {
	return m.Freeze().Predict(context)
}

// Freeze ranks the model's documents once into an immutable snapshot.
// One more than n are kept, so n remain when the current document is
// one of them.
func (m *Model) Freeze() markov.Predictor {
	top := m.rank.Top(n + 1)
	f := &Frozen{top: make([]markov.Prediction, len(top)), nodes: m.rank.Len()}
	for i, u := range top {
		f.top[i] = markov.Prediction{URL: u, Probability: m.rank.Relative(u)}
	}
	return f
}

// NodeCount reports the model's storage requirement: one counter per
// distinct document, the cheapest of all the models.
func (m *Model) NodeCount() int { return m.rank.Len() }

// Ranking exposes the underlying popularity state.
func (m *Model) Ranking() *popularity.Ranking { return m.rank }

// Frozen is a trained Top-10 model's serving snapshot: its most popular
// documents, ranked when it was frozen. It cannot be trained and is
// safe for unsynchronized concurrent use.
type Frozen struct {
	top   []markov.Prediction // the n+1 most popular documents, most popular first
	nodes int
}

var _ markov.BufferedPredictor = (*Frozen)(nil)

// Name identifies the model.
func (f *Frozen) Name() string { return "Top-10" }

// TrainSequence panics: a snapshot cannot learn.
func (f *Frozen) TrainSequence([]string) {
	panic("topn: TrainSequence on a frozen model; train the live model and re-freeze")
}

// Predict returns the snapshot's candidates in a fresh slice.
func (f *Frozen) Predict(context []string) []markov.Prediction {
	return f.PredictInto(context, nil)
}

// PredictInto is Predict writing into buf per the
// markov.BufferedPredictor buffer-ownership contract; it allocates
// nothing once buf has room for n predictions.
func (f *Frozen) PredictInto(context []string, buf []markov.Prediction) []markov.Prediction {
	buf = buf[:0]
	cur := ""
	if len(context) > 0 {
		cur = context[len(context)-1]
	}
	for _, p := range f.top {
		if p.URL == cur {
			continue
		}
		buf = append(buf, p)
		if len(buf) == n {
			break
		}
	}
	return buf
}

// NodeCount reports the frozen model's distinct documents.
func (f *Frozen) NodeCount() int { return f.nodes }
