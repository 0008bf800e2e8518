package main

import (
	"io"
	"path/filepath"
	"strings"
	"testing"

	"pbppm/internal/benchreport"
)

// run returns 2, before building a site or booting anything, for each
// flag combination it cannot honour.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name, want string
		args       []string
	}{
		{"unknown profile", "unknown profile", []string{"-profile", "bogus"}},
		{"bad sweep entry", "bad -cluster-sweep entry", []string{"-cluster-sweep", "1,zero"}},
		{"rebalance with find-max", "single -cluster N", []string{"-cluster", "2", "-rebalance", "join", "-find-max"}},
		{"rebalance with a sweep", "single -cluster N", []string{"-cluster-sweep", "1,2", "-rebalance", "leave"}},
		{"rebalance without a cluster", "needs -cluster", []string{"-rebalance", "join"}},
		{"unknown rebalance", "unknown -rebalance", []string{"-cluster", "1", "-rebalance", "foo"}},
		{"undefined flag", "not defined", []string{"-no-such-flag"}},
	} {
		var stderr strings.Builder
		if code := run(c.args, io.Discard, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", c.name, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%s: stderr %q does not mention %q", c.name, stderr.String(), c.want)
		}
	}
}

// smallCluster is a 1-s steady run against a booted one-shard cluster
// over a small site, fast enough for a unit test.
func smallCluster(extra ...string) []string {
	return append([]string{
		"-cluster", "1", "-pages", "60", "-sessions-per-day", "80", "-warm-days", "1",
		"-clients", "10", "-mode", "steady", "-rps", "20", "-duration", "1s", "-slot", "1s",
	}, extra...)
}

// A cluster run writes one artifact record naming its shard count and
// the machine-robust capacity metrics.
func TestRunClusterWritesRecord(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr strings.Builder
	if code := run(smallCluster("-bench-robust", "-bench-out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	rep, err := benchreport.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 {
		t.Fatalf("%d records, want 1", len(rep.Records))
	}
	rec := rep.Records[0]
	if rec.Experiment != "cluster-capacity-steady" || rec.Workload != "nasa-shards1" {
		t.Errorf("record labelled %q / %q", rec.Experiment, rec.Workload)
	}
	for _, k := range []string{"shards", "achieved_rps", "error_rate"} {
		if _, ok := rec.Metrics[k]; !ok {
			t.Errorf("record has no %q: %v", k, rec.Metrics)
		}
	}
	if rec.Metrics["shards"] != 1 || rec.Metrics["achieved_rps"] <= 0 {
		t.Errorf("metrics %v", rec.Metrics)
	}
	if !strings.Contains(stdout.String(), "cluster shards=1: demand") {
		t.Errorf("stdout has no cluster summary:\n%s", stdout.String())
	}
}

// The -max-lag-p99 gate covers cluster runs: a 1ns bound no real
// schedule holds must fail the run with exit 4.
func TestRunClusterLagGate(t *testing.T) {
	var stderr strings.Builder
	if code := run(smallCluster("-max-lag-p99", "1ns"), io.Discard, &stderr); code != 4 {
		t.Fatalf("exit %d, want 4\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "exceeds -max-lag-p99") {
		t.Errorf("stderr does not name the lag gate:\n%s", stderr.String())
	}
}

// -compare exits 3 and names the metric when a run falls short of its
// baseline, and exits 0 when the run beats it. The baselines are one
// run's own artifact with achieved_rps scaled up and down tenfold.
func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stderr strings.Builder
	if code := run(smallCluster("-bench-robust", "-bench-out", out), io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	scaled := func(name string, factor float64) string {
		rep, err := benchreport.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		rep.Records[0].Metrics["achieved_rps"] *= factor
		path := filepath.Join(dir, name)
		if err := benchreport.WriteFile(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}

	var stdout strings.Builder
	stderr.Reset()
	if code := run(smallCluster("-bench-robust", "-compare", scaled("high.json", 10)), &stdout, &stderr); code != 3 {
		t.Fatalf("against a tenfold baseline: exit %d, want 3\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	named := false
	for _, line := range strings.Split(stdout.String(), "\n") {
		named = named || strings.Contains(line, "achieved_rps") && strings.Contains(line, "REGRESSED")
	}
	if !named {
		t.Errorf("the comparison does not name achieved_rps as regressed:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "regressed beyond tolerance") {
		t.Errorf("stderr does not report the regression:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run(smallCluster("-bench-robust", "-compare", scaled("low.json", 0.1), "-tol-wall", "100"), &stdout, &stderr); code != 0 {
		t.Fatalf("against a tenth baseline: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}
