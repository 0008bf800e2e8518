package markov

// TrainAll folds a batch of sequences into a predictor, serially. It is
// the one training path: rebuilds, the simulator and warm starts train a
// fresh model with it, and a delta merge trains its batch into the
// model behind the published snapshot.
func TrainAll(p Predictor, seqs [][]string) {
	for _, s := range seqs {
		p.TrainSequence(s)
	}
}
