package markov

// TrainAll folds a batch of sequences into a predictor, serially. It is
// the one training path: rebuilds, the simulator and warm starts train a
// fresh model with it, and a delta merge trains its batch into a clone
// of the editable model (IncrementalTrainer).
func TrainAll(p Predictor, seqs [][]string) {
	for _, s := range seqs {
		p.TrainSequence(s)
	}
}

// IncrementalTrainer is implemented by models that support O(delta)
// incremental updates: Clone returns a deep copy of the model whose
// subsequent training never mutates the receiver. The maintenance loop
// uses it as its delta-merge path: clone the editable model, train only
// the newly observed sessions into the clone with TrainAll, and publish
// the clone — cost proportional to the delta plus the copy, not to the
// training window.
//
// A Clone result is always the same concrete type as the receiver and
// therefore also implements IncrementalTrainer. Read-only collaborators
// (a popularity grader) may be shared between the clone and the
// receiver; everything trainable must be deep-copied.
type IncrementalTrainer interface {
	Predictor
	// Clone returns a deep copy suitable for absorbing a delta while the
	// receiver stays published. It must not run concurrently with
	// training on the receiver.
	Clone() Predictor
}
