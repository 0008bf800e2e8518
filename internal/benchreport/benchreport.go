// Package benchreport is the experiment-observability subsystem: a
// versioned JSON schema for one reproduction run (the BENCH_*.json
// artifacts cmd/reproduce writes), helpers that measure wall time and
// allocation cost around an experiment, and a tolerance-based Compare
// that classifies every metric of a run against a baseline artifact as
// improved, unchanged, or regressed.
//
// The paper's contribution is an empirical claim — PB-PPM beats 3-PPM
// and LRS on accuracy per byte of model — so the reproduction pipeline
// must leave machine-checkable evidence behind, not just text tables:
// how long each experiment took, where the time went (per-phase totals
// from sim.PhaseClock), how big the trees were (markov.TreeStats), and
// the headline accuracy/traffic/latency numbers. A committed baseline
// artifact plus Compare turns every CI run into a regression gate for
// both the numbers and the speed of producing them.
package benchreport

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pbppm/internal/markov"
)

// SchemaVersion identifies the artifact layout. Readers reject other
// versions loudly rather than guessing: a benchmark comparison against
// a misdecoded baseline is worse than no comparison.
const SchemaVersion = 1

// Environment pins the run's hardware and build context, so a
// comparison across machines or toolchains is visibly one.
type Environment struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU is the machine's logical CPU count; GOMAXPROCS is the
	// parallelism the runtime actually granted this process (container
	// quotas or an explicit GOMAXPROCS make it smaller). Throughput
	// numbers scale with the latter, so both are recorded.
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Commit is the VCS revision baked into the binary, when built from
	// a checkout (empty under plain `go run` without VCS stamping).
	Commit string `json:"commit,omitempty"`
}

// CaptureEnvironment reads the current process's environment block.
func CaptureEnvironment() Environment {
	env := Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// ModelStats is the persisted subset of markov.TreeStats for one
// trained model — the storage side of the paper's accuracy-per-byte
// claim.
type ModelStats struct {
	Model    string `json:"model"`
	Nodes    int    `json:"nodes"`
	Leaves   int    `json:"leaves"`
	MaxDepth int    `json:"max_depth"`
	// ApproxBytes keeps its historical JSON key for artifact-schema
	// stability. It is TreeStats.Bytes: the measured BytesEstimate for a
	// live model an experiment trains itself, and the arena image's size
	// for a frozen model a maintainer publishes.
	ApproxBytes int64 `json:"approx_bytes"`
}

// ModelStatsFrom converts a tree walk into the persisted form.
func ModelStatsFrom(model string, st markov.TreeStats) ModelStats {
	return ModelStats{
		Model:       model,
		Nodes:       st.Nodes,
		Leaves:      st.Leaves,
		MaxDepth:    st.MaxDepth,
		ApproxBytes: st.Bytes,
	}
}

// Record is one experiment (or the workload build) of one workload.
type Record struct {
	// Experiment names the figure/table ("fig2", "baselines", ...;
	// "workload" for the trace build itself).
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`

	// WallSeconds is the end-to-end wall time of the experiment;
	// AllocBytes the heap allocated while it ran (runtime.MemStats
	// TotalAlloc delta — allocation pressure, not peak residency).
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  uint64  `json:"alloc_bytes"`

	// Events counts replayed page views across every simulator run of
	// the experiment; EventsPerSec divides them by the simulate-phase
	// wall time (not WallSeconds, which includes training).
	Events       int64   `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`

	// Phases maps sim phase names to summed wall seconds.
	Phases map[string]float64 `json:"phases,omitempty"`
	// Models holds tree statistics of the trained models, one entry per
	// model name (the last training window's tree for sweeps).
	Models []ModelStats `json:"models,omitempty"`
	// Metrics holds the experiment's headline numbers (hit_ratio_pb,
	// latency_reduction_pb, traffic_increase_pb, ...), the values the
	// regression gate guards.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is one reproduction run: the BENCH_*.json artifact.
type Report struct {
	Schema    int         `json:"schema"`
	Tool      string      `json:"tool"`
	Scale     string      `json:"scale,omitempty"`
	CreatedAt time.Time   `json:"created_at"`
	Env       Environment `json:"env"`
	Records   []Record    `json:"records"`
}

// New returns an empty report stamped with the current environment.
func New(tool, scale string) *Report {
	return &Report{
		Schema:    SchemaVersion,
		Tool:      tool,
		Scale:     scale,
		CreatedAt: time.Now().UTC(),
		Env:       CaptureEnvironment(),
	}
}

// Add appends one record.
func (r *Report) Add(rec Record) { r.Records = append(r.Records, rec) }

// Find returns the record for (experiment, workload), or nil.
func (r *Report) Find(experiment, workload string) *Record {
	for i := range r.Records {
		if r.Records[i].Experiment == experiment && r.Records[i].Workload == workload {
			return &r.Records[i]
		}
	}
	return nil
}

// Validate checks schema version and internal consistency; every
// reader calls it so a truncated or hand-edited artifact fails before
// it poisons a comparison.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("benchreport: artifact schema %d, this build reads %d", r.Schema, SchemaVersion)
	}
	if r.Tool == "" {
		return fmt.Errorf("benchreport: artifact has no tool name")
	}
	if r.Env.GoVersion == "" || r.Env.NumCPU <= 0 || r.Env.GOMAXPROCS <= 0 {
		return fmt.Errorf("benchreport: artifact has an incomplete environment block: %+v", r.Env)
	}
	seen := make(map[[2]string]bool, len(r.Records))
	for i, rec := range r.Records {
		if rec.Experiment == "" || rec.Workload == "" {
			return fmt.Errorf("benchreport: record %d missing experiment (%q) or workload (%q)",
				i, rec.Experiment, rec.Workload)
		}
		key := [2]string{rec.Experiment, rec.Workload}
		if seen[key] {
			return fmt.Errorf("benchreport: duplicate record %s/%s", rec.Experiment, rec.Workload)
		}
		seen[key] = true
		for name, v := range map[string]float64{
			"wall_seconds":   rec.WallSeconds,
			"events_per_sec": rec.EventsPerSec,
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("benchreport: record %s/%s: %s = %v out of range",
					rec.Experiment, rec.Workload, name, v)
			}
		}
		for name, v := range rec.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("benchreport: record %s/%s: metric %s = %v not finite",
					rec.Experiment, rec.Workload, name, v)
			}
		}
		for name, v := range rec.Phases {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("benchreport: record %s/%s: phase %s = %v out of range",
					rec.Experiment, rec.Workload, name, v)
			}
		}
	}
	return nil
}

// Encode writes the report as indented JSON.
func (r *Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("benchreport: encoding artifact: %w", err)
	}
	return nil
}

// Decode reads and validates a report.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("benchreport: decoding artifact: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteFile writes the validated report to path.
func WriteFile(path string, r *Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("benchreport: %w", err)
	}
	if err := r.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and validates the report at path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchreport: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
