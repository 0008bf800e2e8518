package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"

	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/sim"
)

// predictBenchMaxContexts bounds how many distinct test contexts the
// serving-path benchmark cycles through; enough to defeat branch-
// predictor overfitting without making the run slow.
const predictBenchMaxContexts = 4096

// predictBenchContextTail mirrors the HTTP server's context-tail cap:
// the serving path never hands a model more than this many URLs.
const predictBenchContextTail = 16

// PredictBench measures the serving-path cost of the frozen
// popularity-based model: heap allocations and wall time per Predict
// call over real test-session contexts, plus the arena snapshot's
// storage footprint. The allocation figure is the artifact the arena
// design is gated on — it must be exactly zero.
type PredictBench struct {
	Workload    string
	Model       string
	Contexts    int     // distinct contexts cycled through
	AllocsPerOp float64 // average heap allocations per PredictInto call
	NsPerOp     float64 // average wall nanoseconds per PredictInto call
	ArenaBytes  int     // size of the frozen arena image
	Nodes       int     // model node count (the paper's space metric)
}

var (
	_ Headliner = (*PredictBench)(nil)
	_ CSVWriter = (*PredictBench)(nil)
)

// RunPredictBench trains the popularity-based model on all but the
// last day, freezes it into its arena snapshot, and drives the frozen
// serving path with the final day's contexts.
func RunPredictBench(w *Workload) (*PredictBench, error) {
	sp, err := lastDay(w, "predict-bench")
	if err != nil {
		return nil, err
	}
	model := core.New(sp.rank, core.Config{
		RelProbCutoff:  0.01,
		DropSingletons: w.DropSingletons,
	})
	sim.Train(model, sp.train)
	frozen := model.Freeze().(markov.BufferedPredictor)

	// Every click of every test session is a serving-path call site:
	// the context is the session's prefix up to that click, tail-capped
	// the way the HTTP server caps it.
	var ctxs [][]string
	for _, s := range sp.test {
		urls := s.URLs()
		for i := 1; i <= len(urls) && len(ctxs) < predictBenchMaxContexts; i++ {
			ctx := urls[:i]
			if len(ctx) > predictBenchContextTail {
				ctx = ctx[len(ctx)-predictBenchContextTail:]
			}
			ctxs = append(ctxs, ctx)
		}
	}
	if len(ctxs) == 0 {
		return nil, fmt.Errorf("experiments: predict-bench: no test contexts")
	}

	// One warm pass grows the scratch buffer to its steady-state
	// capacity, so the measured loop exercises the pure reuse path.
	var buf []markov.Prediction
	for _, ctx := range ctxs {
		buf = frozen.PredictInto(ctx, buf)
	}

	i := 0
	allocs := testing.AllocsPerRun(2*len(ctxs), func() {
		buf = frozen.PredictInto(ctxs[i%len(ctxs)], buf)
		i++
	})

	rounds := 1 + 100_000/len(ctxs)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, ctx := range ctxs {
			buf = frozen.PredictInto(ctx, buf)
		}
	}
	nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(rounds*len(ctxs))

	pb := &PredictBench{
		Workload:    w.Name,
		Model:       model.Name(),
		Contexts:    len(ctxs),
		AllocsPerOp: allocs,
		NsPerOp:     nsPerOp,
		Nodes:       frozen.NodeCount(),
	}
	if ah, ok := frozen.(markov.ArenaHolder); ok {
		pb.ArenaBytes = ah.Arena().SizeBytes()
	}
	return pb, nil
}

// Headline exposes the regression-gated serving-path metrics. Wall
// time per op is deliberately excluded: it is machine-dependent and
// would make the BENCH comparison flaky, while allocations and the
// arena footprint are deterministic.
func (p *PredictBench) Headline() map[string]float64 {
	return map[string]float64{
		"predict_allocs_per_op": p.AllocsPerOp,
		"predict_arena_bytes":   float64(p.ArenaBytes),
	}
}

// String renders the benchmark summary.
func (p *PredictBench) String() string {
	tb := &metrics.Table{
		Title:   fmt.Sprintf("Serving-path benchmark — %s: frozen %s", p.Workload, p.Model),
		Headers: []string{"contexts", "allocs/op", "ns/op", "arena bytes", "nodes"},
	}
	tb.AddRow(strconv.Itoa(p.Contexts),
		strconv.FormatFloat(p.AllocsPerOp, 'f', -1, 64),
		strconv.FormatFloat(p.NsPerOp, 'f', 0, 64),
		strconv.Itoa(p.ArenaBytes),
		strconv.Itoa(p.Nodes))
	return tb.String()
}

// WriteCSV exports the benchmark row.
func (p *PredictBench) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "model", "contexts", "allocs_per_op", "ns_per_op", "arena_bytes", "nodes"}); err != nil {
		return err
	}
	if err := cw.Write([]string{
		p.Workload, p.Model, strconv.Itoa(p.Contexts),
		strconv.FormatFloat(p.AllocsPerOp, 'f', -1, 64),
		strconv.FormatFloat(p.NsPerOp, 'f', 0, 64),
		strconv.Itoa(p.ArenaBytes), strconv.Itoa(p.Nodes),
	}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
