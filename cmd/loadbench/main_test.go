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
