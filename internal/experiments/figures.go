package experiments

import (
	"fmt"
	"strconv"

	"pbppm/internal/metrics"
)

// Figure2 reports, per training-window size, the share of popular
// documents among prefetch hits (left figure) and the path-utilization
// rate of each model's tree (right figure), for 3-PPM, LRS-PPM, and
// PB-PPM, as in §3.3/§3.4.
type Figure2 struct {
	Workload string
	Rows     []DayResult
}

// RunFigure2 executes the experiment. The observation runs let every
// click reach the server (full surfing paths), matching the §3.3 setup
// where tree usage is studied independently of the piggyback transport.
func RunFigure2(w *Workload, cfg SweepConfig) (*Figure2, error) {
	cfg.Observation = true
	rows, err := Sweep(w, cfg)
	if err != nil {
		return nil, err
	}
	return &Figure2{Workload: w.Name, Rows: rows}, nil
}

// Models lists the models Figure 2 compares.
func (f *Figure2) Models() []string { return []string{Model3PPM, ModelLRS, ModelPB} }

// String renders both panels.
func (f *Figure2) String() string {
	left := &metrics.Table{
		Title:   fmt.Sprintf("Figure 2 (left) — %s: %% popular documents among prefetch hits", f.Workload),
		Headers: []string{"days", Model3PPM, ModelLRS, ModelPB},
	}
	right := &metrics.Table{
		Title:   fmt.Sprintf("Figure 2 (right) — %s: path utilization rate", f.Workload),
		Headers: []string{"days", Model3PPM, ModelLRS, ModelPB},
	}
	for _, r := range f.Rows {
		day := strconv.Itoa(r.TrainDays)
		left.AddRow(day,
			metrics.Pct(r.Results[Model3PPM].PopularShareOfPrefetchHits()),
			metrics.Pct(r.Results[ModelLRS].PopularShareOfPrefetchHits()),
			metrics.Pct(r.Results[ModelPB].PopularShareOfPrefetchHits()))
		right.AddRow(day,
			metrics.Pct(r.Results[Model3PPM].Utilization),
			metrics.Pct(r.Results[ModelLRS].Utilization),
			metrics.Pct(r.Results[ModelPB].Utilization))
	}
	return left.String() + "\n" + right.String()
}

// Evaluation is the §4 evaluation on one workload: per training-window
// size, the hit ratios and latency reductions of Figure 3, the node
// counts of Tables 1–2, and the space growth and traffic increments of
// Figure 4, all read from one sweep of the unbounded standard PPM,
// LRS-PPM and PB-PPM. The largest window's row also holds the
// context-free Top-10 pusher, the related-work baseline (§6) whose
// contrast motivates popularity-based rather than popularity-only
// prefetching.
type Evaluation struct {
	Workload string
	Rows     []DayResult
}

// RunEvaluation executes the sweep.
func RunEvaluation(w *Workload, cfg SweepConfig) (*Evaluation, error) {
	rows, err := Sweep(w, cfg)
	if err != nil {
		return nil, err
	}
	return &Evaluation{Workload: w.Name, Rows: rows}, nil
}

// HitRatio returns a model's hit ratio at a sweep row.
func (e *Evaluation) HitRatio(row int, model string) float64 {
	return e.Rows[row].Results[model].HitRatio()
}

// LatencyReduction returns a model's latency reduction versus the
// no-prefetch baseline at a sweep row.
func (e *Evaluation) LatencyReduction(row int, model string) float64 {
	r := e.Rows[row]
	return r.Results[model].LatencyReductionVs(r.Results[ModelNone])
}

// Nodes returns a model's node count at a sweep row.
func (e *Evaluation) Nodes(row int, model string) int {
	return e.Rows[row].Results[model].Nodes
}

// NodeRatio returns LRS nodes over PB nodes at a sweep row (the
// paper's headline space-reduction factor).
func (e *Evaluation) NodeRatio(row int) float64 {
	pb := e.Nodes(row, ModelPB)
	if pb == 0 {
		return 0
	}
	return float64(e.Nodes(row, ModelLRS)) / float64(pb)
}

// TrafficIncrease returns a model's traffic increment at a sweep row.
func (e *Evaluation) TrafficIncrease(row int, model string) float64 {
	return e.Rows[row].Results[model].TrafficIncrease()
}

// String renders the five panels in the paper's order: Figure 3's hit
// ratio and latency reduction, the space table (days across), and
// Figure 4's node counts and traffic increase; then the largest
// window's related-work table, Top-10 against the context models.
func (e *Evaluation) String() string {
	hit := &metrics.Table{
		Title:   fmt.Sprintf("Figure 3 — %s: hit ratio", e.Workload),
		Headers: []string{"days", ModelPPM, ModelLRS, ModelPB, "no-prefetch"},
	}
	lat := &metrics.Table{
		Title:   fmt.Sprintf("Figure 3 — %s: latency reduction", e.Workload),
		Headers: []string{"days", ModelPPM, ModelLRS, ModelPB},
	}
	space := &metrics.Table{
		Title:   fmt.Sprintf("Table — %s: space size in number of nodes", e.Workload),
		Headers: []string{"model"},
	}
	nodes := &metrics.Table{
		Title:   fmt.Sprintf("Figure 4 — %s: number of nodes", e.Workload),
		Headers: []string{"days", ModelLRS, ModelPB, "LRS/PB"},
	}
	traffic := &metrics.Table{
		Title:   fmt.Sprintf("Figure 4 — %s: traffic increase rate", e.Workload),
		Headers: []string{"days", ModelPPM, ModelLRS, ModelPB},
	}
	for i, r := range e.Rows {
		day := strconv.Itoa(r.TrainDays)
		hit.AddRow(day,
			metrics.Pct(e.HitRatio(i, ModelPPM)),
			metrics.Pct(e.HitRatio(i, ModelLRS)),
			metrics.Pct(e.HitRatio(i, ModelPB)),
			metrics.Pct(e.HitRatio(i, ModelNone)))
		lat.AddRow(day,
			metrics.Pct(e.LatencyReduction(i, ModelPPM)),
			metrics.Pct(e.LatencyReduction(i, ModelLRS)),
			metrics.Pct(e.LatencyReduction(i, ModelPB)))
		space.Headers = append(space.Headers, fmt.Sprintf("%dd", r.TrainDays))
		nodes.AddRow(day,
			strconv.Itoa(e.Nodes(i, ModelLRS)),
			strconv.Itoa(e.Nodes(i, ModelPB)),
			fmt.Sprintf("%.1fx", e.NodeRatio(i)))
		traffic.AddRow(day,
			metrics.Pct(e.TrafficIncrease(i, ModelPPM)),
			metrics.Pct(e.TrafficIncrease(i, ModelLRS)),
			metrics.Pct(e.TrafficIncrease(i, ModelPB)))
	}
	for _, model := range []string{ModelPPM, ModelLRS, ModelPB} {
		row := []string{model}
		for i := range e.Rows {
			row = append(row, strconv.Itoa(e.Nodes(i, model)))
		}
		space.AddRow(row...)
	}
	related := &metrics.Table{
		Title:   fmt.Sprintf("Related-work baseline — %s: context-free Top-10 vs context models", e.Workload),
		Headers: []string{"model", "hit ratio", "latency red.", "traffic inc.", "nodes"},
	}
	last := len(e.Rows) - 1
	for _, model := range []string{ModelNone, ModelTop10, ModelPPM, ModelLRS, ModelPB} {
		related.AddRow(model,
			metrics.Pct(e.HitRatio(last, model)),
			metrics.Pct(e.LatencyReduction(last, model)),
			metrics.Pct(e.TrafficIncrease(last, model)),
			strconv.Itoa(e.Nodes(last, model)))
	}
	return hit.String() + "\n" + lat.String() + "\n" + space.String() + "\n" +
		nodes.String() + "\n" + traffic.String() + "\n" + related.String()
}
