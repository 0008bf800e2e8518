package markov

// TrainAll folds a batch of sequences into a predictor, serially; the
// simulator trains with it. The maintainer's window trains the same
// way, one TrainSequence per session, from its columns through one
// reused slice.
func TrainAll(p Predictor, seqs [][]string) {
	for _, s := range seqs {
		p.TrainSequence(s)
	}
}
