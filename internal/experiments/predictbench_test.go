package experiments

import "testing"

// TestPredictBenchZeroAllocs runs the serving-path benchmark on the
// deterministic test workload and pins its two gated guarantees: the
// frozen path performs zero allocations per prediction, and the arena
// image is nonempty.
func TestPredictBenchZeroAllocs(t *testing.T) {
	pb, err := RunPredictBench(testNASA(t))
	if err != nil {
		t.Fatal(err)
	}
	if pb.AllocsPerOp != 0 {
		t.Errorf("frozen Predict path allocates %v per op, want 0", pb.AllocsPerOp)
	}
	if pb.ArenaBytes == 0 || pb.Nodes == 0 || pb.Contexts == 0 {
		t.Errorf("degenerate benchmark: %+v", pb)
	}
	h := pb.Headline()
	if _, ok := h["predict_allocs_per_op"]; !ok {
		t.Error("headline missing predict_allocs_per_op")
	}
}
