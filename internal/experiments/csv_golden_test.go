package experiments

import (
	"bytes"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pbppm/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite the CSV golden files")

// goldenResult builds a deterministic metrics.Result so the golden
// bytes never depend on a simulation run.
func goldenResult(model string, seed int64) metrics.Result {
	return metrics.Result{
		Model:               model,
		Requests:            100 * seed,
		CacheHits:           30 * seed,
		PrefetchHits:        20 * seed,
		PrefetchHitsPopular: 18 * seed,
		UsefulBytes:         1000 * seed,
		TransferredBytes:    1250 * seed,
		PrefetchedBytes:     400 * seed,
		PrefetchedDocs:      25 * seed,
		TotalLatency:        time.Duration(seed) * time.Second,
		Nodes:               int(500 * seed),
		Utilization:         0.5 + float64(seed)/100,
	}
}

func goldenDayResults(models []string) []DayResult {
	var rows []DayResult
	for day := 1; day <= 3; day++ {
		r := DayResult{TrainDays: day, Results: map[string]metrics.Result{}}
		for i, m := range models {
			r.Results[m] = goldenResult(m, int64(day+i))
		}
		rows = append(rows, r)
	}
	return rows
}

// goldenArtifacts returns every experiment artifact filled with
// deterministic values, keyed by golden-file stem.
func goldenArtifacts() map[string]CSVWriter {
	sweep := goldenDayResults([]string{ModelNone, ModelPPM, Model3PPM, ModelLRS, ModelPB})
	fig5Models := []string{ModelPPM, ModelLRS, ModelPB4KB, ModelPB10KB}
	fig5 := &Figure5{Workload: "golden", ClientCounts: []int{1, 8, 32}}
	for i := range fig5.ClientCounts {
		res := map[string]metrics.Result{}
		for j, m := range fig5Models {
			res[m] = goldenResult(m, int64(i+j+1))
		}
		fig5.Results = append(fig5.Results, res)
	}
	return map[string]CSVWriter{
		"figure2": &Figure2{Workload: "golden", Rows: sweep},
		"figure3": &Figure3{Workload: "golden", Rows: sweep},
		"table":   &SpaceTable{Workload: "golden", Rows: sweep},
		"figure4": &Figure4{Workload: "golden", Rows: sweep},
		"figure5": fig5,
		"ablation": &Ablation{Name: "golden", Workload: "golden", Rows: []AblationRow{
			{Label: "baseline", Result: goldenResult(ModelPB, 1), LatencyReduction: 0.20},
			{Label: "variant", Result: goldenResult(ModelPB, 2), LatencyReduction: 0.25},
		}},
		"baselines": &Baselines{Workload: "golden", Results: []metrics.Result{
			goldenResult(ModelNone, 1), goldenResult(ModelTop10, 2), goldenResult(ModelPB, 3),
		}},
		"maintenance": &Maintenance{Workload: "golden", Days: []int{1, 2},
			Static: []metrics.Result{goldenResult(ModelPB, 1), goldenResult(ModelPB, 2)},
			Daily:  []metrics.Result{goldenResult(ModelPB, 3), goldenResult(ModelPB, 4)},
		},
		"maintenance-cost": &MaintenanceCost{Workload: "golden", Days: []int{2, 3},
			DeltaSeconds:   []float64{0.0125, 0.015625},
			RebuildSeconds: []float64{0.25, 0.5},
			Delta:          []metrics.Result{goldenResult(ModelPB, 1), goldenResult(ModelPB, 2)},
			Rebuilt:        []metrics.Result{goldenResult(ModelPB, 3), goldenResult(ModelPB, 4)},
		},
	}
}

// wantShape pins each artifact's header row and data row count; a
// header rename or a lost row is a breaking change for downstream
// plotting scripts even when the golden file is regenerated.
var wantShape = map[string]struct {
	header []string
	rows   int
}{
	"figure2":     {[]string{"days", "model", "popular_share", "utilization"}, 9},
	"figure3":     {[]string{"days", "model", "hit_ratio", "latency_reduction"}, 12},
	"table":       {[]string{"days", "model", "nodes"}, 9},
	"figure4":     {[]string{"days", "model", "nodes", "traffic_increase"}, 9},
	"figure5":     {[]string{"clients", "model", "hit_ratio", "traffic_increase"}, 12},
	"ablation":    {[]string{"variant", "hit_ratio", "latency_reduction", "traffic_increase", "nodes"}, 2},
	"baselines":   {[]string{"model", "hit_ratio", "traffic_increase", "nodes"}, 3},
	"maintenance": {[]string{"day", "static_hit", "daily_hit", "static_nodes", "daily_nodes"}, 2},
	"maintenance-cost": {[]string{"day", "delta_seconds", "rebuild_seconds",
		"delta_hit", "rebuild_hit", "delta_nodes", "rebuild_nodes"}, 2},
}

// TestCSVGolden checks every artifact's CSV export byte-for-byte
// against testdata/csv/<name>.golden.csv and verifies the parsed
// header and row count. Regenerate with: go test ./internal/experiments
// -run TestCSVGolden -update
func TestCSVGolden(t *testing.T) {
	for name, art := range goldenArtifacts() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := art.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, filepath.Join("testdata", "csv", name+".golden.csv"), buf.Bytes())

			rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
			if err != nil {
				t.Fatalf("artifact CSV does not re-parse: %v", err)
			}
			shape := wantShape[name]
			if len(rows) == 0 {
				t.Fatal("empty CSV")
			}
			if got := rows[0]; !equalStrings(got, shape.header) {
				t.Errorf("header = %v, want %v", got, shape.header)
			}
			if got := len(rows) - 1; got != shape.rows {
				t.Errorf("data rows = %d, want %d", got, shape.rows)
			}
		})
	}
}

// compareGolden checks got byte-for-byte against the golden file at
// path, first rewriting the file when -update is set.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("CSV drifted from golden file %s (regenerate with -update if intended):\n got:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// checkRunGolden compares an experiment's CSV on a test workload with
// testdata/runs/<name>.golden.csv. Unlike the synthetic goldens above,
// these pin the numbers the experiments compute, so a change to the
// harness that moves a single replay shows here.
func checkRunGolden(t *testing.T, name string, art CSVWriter) {
	t.Helper()
	var buf bytes.Buffer
	if err := art.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "runs", name+".golden.csv"), buf.Bytes())
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
