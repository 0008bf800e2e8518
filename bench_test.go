// Benchmark harness: the paper's evaluation regenerated at paper scale
// on the synthetic workloads (one benchmark per figure, except that
// Figures 3–4 and Tables 1–2 share one sweep per workload), plus
// micro-benchmarks of the substrates. Domain results
// are attached as custom benchmark metrics so a run doubles as an
// experiment report:
//
//	go test -bench=. -benchmem
package pbppm

import (
	"strings"
	"sync"
	"testing"

	"pbppm/internal/experiments"
	"pbppm/internal/markov"
	"pbppm/internal/session"
	"pbppm/internal/sim"
	"pbppm/internal/trace"
	"pbppm/internal/tracegen"
)

var (
	benchNASAOnce sync.Once
	benchNASA     *experiments.Workload
	benchNASAErr  error
	benchUCBOnce  sync.Once
	benchUCB      *experiments.Workload
	benchUCBErr   error

	// frozenSink keeps BenchmarkFreeze's result live.
	frozenSink markov.Predictor
)

func nasaWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchNASAOnce.Do(func() { benchNASA, benchNASAErr = experiments.NASAWorkload() })
	if benchNASAErr != nil {
		b.Fatal(benchNASAErr)
	}
	return benchNASA
}

func ucbWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchUCBOnce.Do(func() { benchUCB, benchUCBErr = experiments.UCBWorkload() })
	if benchUCBErr != nil {
		b.Fatal(benchUCBErr)
	}
	return benchUCB
}

// BenchmarkFigure2 regenerates Figure 2: the share of popular documents
// among prefetch hits and the path-utilization rates of 3-PPM, LRS-PPM,
// and PB-PPM over 1–7 training days (NASA-like workload).
func BenchmarkFigure2(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := f.Rows[len(f.Rows)-1]
		b.ReportMetric(last.Results[experiments.ModelPB].PopularShareOfPrefetchHits(), "PB-popular-share")
		b.ReportMetric(last.Results[experiments.ModelPB].Utilization, "PB-utilization")
		b.ReportMetric(last.Results[experiments.Model3PPM].Utilization, "3PPM-utilization")
	}
}

// BenchmarkEvaluationNASA regenerates the §4 evaluation on the
// NASA-like workload from one sweep over 1–7 training days: Figure 3's
// hit ratios and latency reductions, Table 1's node counts, Figure 4's
// space growth and traffic increments, and the related-work Top-10
// baseline on the last split.
func BenchmarkEvaluationNASA(b *testing.B) {
	benchEvaluation(b, nasaWorkload(b))
}

// BenchmarkEvaluationUCB regenerates the same artifacts on the
// UCB-CS-like workload over 1–5 training days: Figure 3's third and
// fourth panels, Table 2 (both space optimizations on for PB-PPM) and
// Figure 4's third and fourth panels.
func BenchmarkEvaluationUCB(b *testing.B) {
	benchEvaluation(b, ucbWorkload(b))
}

// benchEvaluation runs the evaluation sweep on w and reports the last
// training window's headline numbers.
func benchEvaluation(b *testing.B, w *experiments.Workload) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.RunEvaluation(w, experiments.SweepConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(e.Rows) - 1
		b.ReportMetric(e.HitRatio(last, experiments.ModelPB), "PB-hit")
		b.ReportMetric(e.HitRatio(last, experiments.ModelPPM), "PPM-hit")
		b.ReportMetric(e.LatencyReduction(last, experiments.ModelPB), "PB-latred")
		b.ReportMetric(float64(e.Nodes(last, experiments.ModelPPM)), "PPM-nodes")
		b.ReportMetric(float64(e.Nodes(last, experiments.ModelLRS)), "LRS-nodes")
		b.ReportMetric(float64(e.Nodes(last, experiments.ModelPB)), "PB-nodes")
		b.ReportMetric(e.NodeRatio(last), "LRS/PB-nodes")
		b.ReportMetric(e.TrafficIncrease(last, experiments.ModelLRS), "LRS-traffic")
		b.ReportMetric(e.TrafficIncrease(last, experiments.ModelPB), "PB-traffic")
		b.ReportMetric(e.HitRatio(last, experiments.ModelTop10), "Top10-hit")
	}
}

// BenchmarkFigure5 regenerates Figure 5: proxy hit ratios and traffic
// increments for 1–32 clients behind a shared proxy.
func BenchmarkFigure5(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure5(w, experiments.Figure5Config{})
		if err != nil {
			b.Fatal(err)
		}
		last := len(f.ClientCounts) - 1
		b.ReportMetric(f.Results[last][experiments.ModelPB10KB].HitRatio(), "PB10KB-hit-32c")
		b.ReportMetric(f.Results[last][experiments.ModelPB4KB].TrafficIncrease(), "PB4KB-traffic-32c")
	}
}

// BenchmarkAblationThresholds sweeps PB-PPM's probability and size
// thresholds (the hit/traffic trade-off knob of §4.1 and §5).
func BenchmarkAblationThresholds(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationThresholds(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSpaceOpt compares PB-PPM's space optimizations
// (§3.4's two alternatives).
func BenchmarkAblationSpaceOpt(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationSpaceOpt(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Rows[0].Result.Nodes), "nodes-raw")
		b.ReportMetric(float64(a.Rows[len(a.Rows)-1].Result.Nodes), "nodes-optimized")
	}
}

// BenchmarkAblationHeights sweeps the grade→height mapping.
func BenchmarkAblationHeights(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationHeights(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinks isolates rule 3 (popular-node links).
func BenchmarkAblationLinks(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationLinks(w); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- micro-benchmarks of the substrates -----

func benchSessions(b *testing.B, w *experiments.Workload, days int) []session.Session {
	b.Helper()
	s := w.DaySessions(0, days)
	if len(s) == 0 {
		b.Fatal("no sessions")
	}
	return s
}

// BenchmarkTrainPBPPM measures PB-PPM model construction throughput
// (sessions folded per op: one full 5-day training window).
func BenchmarkTrainPBPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	rank := experiments.Ranking(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
		sim.Train(m, train)
	}
}

// BenchmarkTrainStandardPPM measures unbounded standard PPM training on
// the same window (the memory-hungry baseline).
func BenchmarkTrainStandardPPM(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewStandardPPM(PPMConfig{})
		sim.Train(m, train)
	}
}

// BenchmarkTrainLRS measures LRS training plus its repeat-pruning
// rebuild.
func BenchmarkTrainLRS(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLRS(LRSConfig{})
		sim.Train(m, train)
	}
}

// benchPBPPM trains the PB-PPM model the predict and attach benchmarks
// serve: five training days, singletons dropped, a 1% relative
// probability cutoff.
func benchPBPPM(b *testing.B, w *experiments.Workload) *PopularityPPM {
	train := benchSessions(b, w, 5)
	m := NewPopularityPPM(experiments.Ranking(train), PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
	sim.Train(m, train)
	return m
}

// BenchmarkPredictFrozenPBPPM measures the arena serving path: the same
// trained PB-PPM model frozen into its flat arena and driven through
// PredictInto with a reused scratch buffer. CI runs this with -benchmem
// and fails if it reports any allocations — the zero-allocation gate on
// the frozen serving path.
func BenchmarkPredictFrozenPBPPM(b *testing.B) {
	w := nasaWorkload(b)
	m := benchPBPPM(b, w)
	frozen := m.Freeze().(BufferedPredictor)
	contexts := make([][]string, 0, 256)
	for _, s := range w.DaySessions(5, 6) {
		urls := s.URLs()
		for j := range urls {
			contexts = append(contexts, urls[:j+1])
			if len(contexts) == cap(contexts) {
				break
			}
		}
		if len(contexts) == cap(contexts) {
			break
		}
	}
	// Warm pass: grow the scratch buffer to steady-state capacity so the
	// measured loop is pure reuse.
	var buf []Prediction
	for _, ctx := range contexts {
		buf = frozen.PredictInto(ctx, buf)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = frozen.PredictInto(contexts[i%len(contexts)], buf)
	}
}

// BenchmarkPredictFrozenPBPPMStreaming measures the frozen model the
// way the server drives it: each op advances a session's match state by
// one URL (Step) and predicts from the state (PredictFrom), over the
// same session prefixes BenchmarkPredictFrozenPBPPM re-matches whole.
// CI's zero-allocation gate covers it too.
func BenchmarkPredictFrozenPBPPMStreaming(b *testing.B) {
	const maxOrder = 16 // the server's context tail
	w := nasaWorkload(b)
	m := benchPBPPM(b, w)
	frozen := m.Freeze().(interface {
		Step(node uint32, url string, maxOrder int) uint32
		PredictFrom(node uint32, last string, maxOrder int, buf []Prediction) []Prediction
	})
	// One step per session prefix: a step that opens a session starts
	// from the empty match state.
	type step struct {
		url   string
		fresh bool
	}
	steps := make([]step, 0, 256)
	for _, s := range w.DaySessions(5, 6) {
		for j, u := range s.URLs() {
			steps = append(steps, step{url: u, fresh: j == 0})
			if len(steps) == cap(steps) {
				break
			}
		}
		if len(steps) == cap(steps) {
			break
		}
	}
	var (
		buf  []Prediction
		node uint32
	)
	run := func(st step) {
		if st.fresh {
			node = 0
		}
		node = frozen.Step(node, st.url, maxOrder)
		buf = frozen.PredictFrom(node, st.url, maxOrder, buf)
	}
	// Warm pass: grow the scratch buffer to steady-state capacity.
	for _, st := range steps {
		run(st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(steps[i%len(steps)])
	}
}

// BenchmarkArenaAttach measures ArenaFromBytes on the arena image of
// the PB-PPM model the predict benchmarks serve: the cost a follower or
// a rebuild pays to validate an image and derive its URL index, depths
// and suffix links before serving from it.
func BenchmarkArenaAttach(b *testing.B) {
	a := markov.Freeze(benchPBPPM(b, nasaWorkload(b))).(markov.ArenaHolder).Arena()
	img := a.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markov.ArenaFromBytes(img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NodeCount()), "nodes")
	b.ReportMetric(float64(len(img)), "image_bytes")
}

// BenchmarkFreeze measures freezing the PB-PPM model the predict
// benchmarks serve into its frozen snapshot: the cost every publish
// pays (warm build, rebuild, delta merge). CI gates its allocs/op.
func BenchmarkFreeze(b *testing.B) {
	m := benchPBPPM(b, nasaWorkload(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frozenSink = markov.Freeze(m)
	}
	b.ReportMetric(float64(m.NodeCount()), "nodes")
}

// BenchmarkTrainAll measures serial session-by-session training of the
// height-3 standard PPM model over the 5-day window, the one training
// path. CI gates its B/op: per-worker trees or a second pass over the
// trained tree would show up there.
func BenchmarkTrainAll(b *testing.B) {
	w := nasaWorkload(b)
	seqs := sim.URLSequences(benchSessions(b, w, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		markov.TrainAll(NewStandardPPM(PPMConfig{Height: 3}), seqs)
	}
}

// BenchmarkReplayDay measures the simulator replaying one full test day
// against a trained PB-PPM model, predicting through its frozen
// snapshot. CI gates its allocs/op.
func BenchmarkReplayDay(b *testing.B) {
	w := nasaWorkload(b)
	train := benchSessions(b, w, 5)
	test := w.DaySessions(5, 6)
	rank := experiments.Ranking(train)
	m := NewPopularityPPM(rank, PopularityPPMConfig{RelProbCutoff: 0.01, DropSingletons: true})
	sim.Train(m, train)
	opt := sim.Options{
		Predictor: m, MaxPrefetchBytes: sim.PBMaxPrefetchBytes,
		Path: w.Path, Grades: rank, Sizes: w.Sizes,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(test, opt)
	}
}

// BenchmarkGenerateTrace measures synthetic workload generation.
func BenchmarkGenerateTrace(b *testing.B) {
	p := tracegen.NASA()
	p.Days = 2
	for i := 0; i < b.N; i++ {
		if _, err := tracegen.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionize measures session splitting and embedded-object
// folding over the full NASA-like trace.
func BenchmarkSessionize(b *testing.B) {
	w := nasaWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Sessionize(w.Trace, session.Config{})
	}
}

// BenchmarkParseCLF measures Common Log Format parsing.
func BenchmarkParseCLF(b *testing.B) {
	w := nasaWorkload(b)
	var sb strings.Builder
	for _, r := range w.Trace.Records[:1000] {
		sb.WriteString(trace.MarshalCLF(r))
		sb.WriteByte('\n')
	}
	text := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := trace.ReadCLF(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCachePolicy compares LRU vs GDSF browser caches.
func BenchmarkAblationCachePolicy(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationCachePolicy(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].Result.HitRatio(), "LRU-hit")
		b.ReportMetric(a.Rows[1].Result.HitRatio(), "GDSF-hit")
	}
}

// BenchmarkAblationBlending compares longest-match and variable-order
// blended prediction on the standard model.
func BenchmarkAblationBlending(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblationBlending(w)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].Result.HitRatio(), "longest-hit")
		b.ReportMetric(a.Rows[1].Result.HitRatio(), "blended-hit")
	}
}

// BenchmarkAblationOnlineTraining compares frozen vs online-updated
// PB-PPM during the evaluation day.
func BenchmarkAblationOnlineTraining(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationOnlineTraining(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintenance runs the maintenance study: static, daily
// rebuilds and delta merges.
func BenchmarkMaintenance(b *testing.B) {
	w := nasaWorkload(b)
	for i := 0; i < b.N; i++ {
		m, err := experiments.RunMaintenance(w)
		if err != nil {
			b.Fatal(err)
		}
		last := len(m.Days) - 1
		b.ReportMetric(m.Static[last].HitRatio(), "static-hit-day7")
		b.ReportMetric(m.Daily[last].HitRatio(), "daily-hit-day7")
	}
}
