// Package pbppm is a library and trace-driven simulation framework for
// popularity-based PPM Web prefetching, reproducing Chen & Zhang,
// "Popularity-Based PPM: An Effective Web Prefetching Technique for
// High Accuracy and Low Storage" (ICPP 2002).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - three prediction models — the standard fixed/unbounded-height PPM
//     model, the Longest-Repeating-Subsequences model (Pitkow &
//     Pirolli), and the paper's popularity-based PPM — all implementing
//     the Predictor interface;
//   - relative-popularity ranking with the paper's log10 grade scale;
//   - access-log handling: Common Log Format parsing, 30-minute-idle
//     sessionization with embedded-image folding, proxy/browser client
//     classification;
//   - a synthetic trace generator reproducing the surfing regularities
//     the paper's findings rest on, standing in for the NASA-KSC and
//     UCB-CS logs;
//   - a trace-driven simulator with LRU browser/proxy caches, a fitted
//     linear latency model, and the paper's §2.3 metrics (hit ratio,
//     latency reduction, node-count space, traffic increment);
//   - the experiment harness that regenerates every table and figure of
//     the paper's evaluation.
//
// # Quick start
//
//	profile := pbppm.NASAProfile()
//	trace, _ := pbppm.GenerateTrace(profile)
//	sessions := pbppm.Sessionize(trace, pbppm.SessionConfig{})
//
//	rank := pbppm.NewRanking()
//	for _, s := range sessions {
//		for _, u := range s.URLs() {
//			rank.Observe(u, 1)
//		}
//	}
//	model := pbppm.NewPopularityPPM(rank, pbppm.PopularityPPMConfig{})
//	for _, s := range sessions {
//		model.TrainSequence(s.URLs())
//	}
//	model.Optimize()
//	fmt.Println(model.Predict([]string{"/d0/page0000.html"}))
//
// Predict on a live model freezes it for the call; to serve many
// predictions, freeze once and predict from the snapshot:
//
//	frozen := model.Freeze()
//	fmt.Println(frozen.Predict([]string{"/d0/page0000.html"}))
//
// See the examples directory for runnable programs and DESIGN.md for
// the system inventory and experiment index.
package pbppm
