package experiments

import (
	"testing"
)

// TestFullScaleNASAShapes runs the paper-scale NASA workload sweep and
// logs the metric surfaces; guarded by -short for day-to-day test runs.
func TestFullScaleNASAShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep skipped in -short mode")
	}
	w, err := NASAWorkload()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trace: %d records, %d sessions, %d days",
		len(w.Trace.Records), len(w.Sessions), w.Days())
	rows, err := Sweep(w, SweepConfig{MaxTrainDays: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for _, m := range []string{ModelNone, ModelPPM, ModelLRS, ModelPB} {
			res := r.Results[m]
			t.Logf("day %d %-8s hit=%.3f traffic=%.3f nodes=%7d util=%.3f popShare=%.3f latRed=%.3f",
				r.TrainDays, m, res.HitRatio(), res.TrafficIncrease(), res.Nodes,
				res.Utilization, res.PopularShareOfPrefetchHits(),
				res.LatencyReductionVs(r.Results[ModelNone]))
		}
	}

	// Paper-scale shape assertions (Figures 3–4, Table 1, NASA).
	last := rows[len(rows)-1]
	pb, lrs, ppm := last.Results[ModelPB], last.Results[ModelLRS], last.Results[ModelPPM]
	base := last.Results[ModelNone]
	if pb.HitRatio() <= lrs.HitRatio() || pb.HitRatio() <= ppm.HitRatio() {
		t.Errorf("PB hit %.3f does not win (LRS %.3f, PPM %.3f)",
			pb.HitRatio(), lrs.HitRatio(), ppm.HitRatio())
	}
	if pb.LatencyReductionVs(base) <= lrs.LatencyReductionVs(base) ||
		pb.LatencyReductionVs(base) <= ppm.LatencyReductionVs(base) {
		t.Error("PB latency reduction does not win")
	}
	if ratio := float64(lrs.Nodes) / float64(pb.Nodes); ratio < 3 {
		t.Errorf("day-7 LRS/PB node ratio = %.2f, want >= 3 (paper: up to ~7x)", ratio)
	}
	if ppm.Nodes < 50*lrs.Nodes {
		t.Errorf("standard model nodes %d not dramatically above LRS %d", ppm.Nodes, lrs.Nodes)
	}
	ratio1 := float64(rows[0].Results[ModelLRS].Nodes) / float64(rows[0].Results[ModelPB].Nodes)
	ratio7 := float64(lrs.Nodes) / float64(pb.Nodes)
	if ratio7 <= ratio1 {
		t.Errorf("LRS/PB ratio did not grow with days: %.2f -> %.2f", ratio1, ratio7)
	}
}
