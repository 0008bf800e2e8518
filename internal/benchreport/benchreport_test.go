package benchreport

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/sim"
)

// buildReport assembles a report the way cmd/reproduce does: a
// measured section, a phase clock, model stats, and headline metrics.
func buildReport() *Report {
	r := New("reproduce", "small")
	clock := sim.NewPhaseClock()
	clock.Observe(sim.PhaseTrain, 200*time.Millisecond)
	clock.Observe(sim.PhaseSimulate, 800*time.Millisecond)
	clock.AddEvents(40000)
	models := map[string]markov.TreeStats{
		"PB-PPM":  {Nodes: 1200, Leaves: 700, MaxDepth: 7, Bytes: 150000},
		"LRS-PPM": {Nodes: 5400, Leaves: 3000, MaxDepth: 9, Bytes: 700000},
	}
	rec := NewRecord("fig2", "nasa",
		Measurement{Wall: 1100 * time.Millisecond, AllocBytes: 5 << 20},
		clock, models, map[string]float64{
			"popular_share_pb": 0.93,
			"utilization_pb":   0.71,
		})
	r.Add(rec)
	r.Add(Record{Experiment: "workload", Workload: "nasa", WallSeconds: 0.4,
		Phases: map[string]float64{sim.PhaseWorkloadBuild: 0.4}})
	return r
}

func TestReportRoundTrip(t *testing.T) {
	r := buildReport()
	path := filepath.Join(t.TempDir(), "BENCH_nasa.json")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || got.Tool != "reproduce" || got.Scale != "small" {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Env.GoVersion == "" || got.Env.NumCPU <= 0 || got.Env.GOMAXPROCS <= 0 {
		t.Errorf("environment not captured: %+v", got.Env)
	}
	if !reflect.DeepEqual(got.Records, r.Records) {
		t.Errorf("records did not round-trip:\n got %+v\nwant %+v", got.Records, r.Records)
	}
}

func TestNewRecordDerivesThroughputFromSimulatePhase(t *testing.T) {
	rec := buildReport().Records[0]
	// 40000 events over the 0.8s simulate phase, not the 1.1s wall.
	if rec.Events != 40000 {
		t.Errorf("Events = %d, want 40000", rec.Events)
	}
	if rec.EventsPerSec < 49999 || rec.EventsPerSec > 50001 {
		t.Errorf("EventsPerSec = %v, want 50000", rec.EventsPerSec)
	}
	if len(rec.Models) != 2 || rec.Models[0].Model != "LRS-PPM" || rec.Models[1].Model != "PB-PPM" {
		t.Errorf("models not sorted by name: %+v", rec.Models)
	}
}

func TestValidateRejectsBrokenArtifacts(t *testing.T) {
	cases := map[string]func(*Report){
		"wrong schema":    func(r *Report) { r.Schema = SchemaVersion + 1 },
		"no tool":         func(r *Report) { r.Tool = "" },
		"no env":          func(r *Report) { r.Env = Environment{} },
		"empty workload":  func(r *Report) { r.Records[0].Workload = "" },
		"negative wall":   func(r *Report) { r.Records[0].WallSeconds = -1 },
		"nan metric":      func(r *Report) { r.Records[0].Metrics["popular_share_pb"] = math.NaN() },
		"duplicate key":   func(r *Report) { r.Records[1] = r.Records[0] },
		"negative phase":  func(r *Report) { r.Records[1].Phases[sim.PhaseWorkloadBuild] = -0.1 },
		"inf events rate": func(r *Report) { r.Records[0].EventsPerSec = math.Inf(1) },
	}
	for name, mutate := range cases {
		r := buildReport()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken artifact", name)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Error("Decode accepted malformed JSON")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("Decode accepted an empty artifact")
	}
}
