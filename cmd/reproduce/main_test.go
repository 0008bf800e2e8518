package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"pbppm/internal/benchreport"
)

// TestUsageErrorsExitBeforeBuilding: an unknown experiment, workload or
// scale exits 2 at once, without building a workload. The names of the
// experiments folded into others (the three sweeps and the baselines
// now in eval, maintenance-cost now in maintenance), and of the deleted
// predict-bench, are unknown too.
func TestUsageErrorsExitBeforeBuilding(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "bogus", "-scale", "small", "-workload", "nasa"},
		{"-scale", "smal", "-workload", "nasa", "-exp", "eval"},
		{"-workload", "bogus", "-scale", "small"},
		{"-exp", "fig3", "-scale", "small", "-workload", "nasa"},
		{"-exp", "table", "-scale", "small", "-workload", "nasa"},
		{"-exp", "fig4", "-scale", "small", "-workload", "nasa"},
		{"-exp", "predict-bench", "-scale", "small", "-workload", "nasa"},
		{"-exp", "baselines", "-scale", "small", "-workload", "nasa"},
		{"-exp", "maintenance-cost", "-scale", "small", "-workload", "nasa"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "unknown") || strings.Contains(msg, "prepared") {
			t.Errorf("%v: stderr %q, want an unknown-value error and no workload build", args, msg)
		}
	}
}

// TestBenchArtifactComparesAgainstItself runs the maintenance
// experiment on the small NASA workload: its -bench-out artifact passes
// -compare against itself, and a copy with one headline metric moved
// past -tol-metric fails the comparison with exit 3.
func TestBenchArtifactComparesAgainstItself(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "run.json")
	bench := []string{"-exp", "maintenance", "-scale", "small", "-workload", "nasa"}
	var stdout, stderr bytes.Buffer
	if code := realMain(append(bench, "-bench-out", artifact, "-compare", artifact), &stdout, &stderr); code != 0 {
		t.Fatalf("run compared against its own artifact: exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}

	report, err := benchreport.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, r := range report.Records {
		if v, ok := r.Metrics["nodes_daily"]; ok && r.Experiment == "maintenance" {
			report.Records[i].Metrics["nodes_daily"] = v / 2
			moved = true
		}
	}
	if !moved {
		t.Fatalf("artifact has no maintenance record with nodes_daily: %+v", report.Records)
	}
	baseline := filepath.Join(dir, "moved.json")
	if err := benchreport.WriteFile(baseline, report); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	// Run-cost noise between two runs must not decide the verdict.
	if code := realMain(append(bench, "-compare", baseline, "-tol-wall", "1000", "-tol-metric", "0.10"), &stdout, &stderr); code != 3 {
		t.Fatalf("run against a baseline with a moved headline metric: exit %d, want 3\nstdout:\n%s", code, &stdout)
	}
	regressed := false
	for _, line := range strings.Split(stdout.String(), "\n") {
		regressed = regressed || strings.Contains(line, "nodes_daily") && strings.Contains(line, "REGRESSED")
	}
	if !regressed {
		t.Errorf("comparison does not report the moved metric as regressed:\n%s", &stdout)
	}
}
