package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// contract is the metric lists BENCHMARK.json declares.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestContractListsEveryWorkload(t *testing.T) {
	var got, want []string
	for _, w := range readContract(t).Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
}

// TestBrowseQualityRepeatsAcrossRuns runs browse twice with one seed:
// its quality metrics come from a fixed plan with synchronous prefetch,
// so they must match exactly.
func TestBrowseQualityRepeatsAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the browse workload twice")
	}
	var runs [2]result
	for i := range runs {
		var out bytes.Buffer
		if code := run([]string{"--workload", "browse", "--seed", "5", "--seconds", "1", "--trace", "0"}, &out); code != 0 {
			t.Fatalf("run %d: exit %d\n%s", i, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"hit_ratio", "prefetch_hit_ratio", "traffic_increase", "model_bytes"} {
		if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
}

// TestWorkloadsCompleteTinyRuns boots every workload and runs it
// briefly, untraced and traced, requiring a correct result that
// carries exactly the metrics BENCHMARK.json declares.
func TestWorkloadsCompleteTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload")
	}
	c := readContract(t)
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, w := range workloads {
		for trace, want := range map[string]map[string]string{"0": units(c.EndToEnd), "1": units(c.PerLayer)} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "2.5",
					"--trace", trace, "--spans-dir", t.TempDir()}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if code != 0 || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
				}
				var got, names []string
				for name, v := range res.Metrics {
					got = append(got, name)
					if v.Unit != want[name] {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, v.Unit, want[name])
					}
				}
				for name := range want {
					names = append(names, name)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, ",") != strings.Join(names, ",") {
					t.Errorf("metrics %v, BENCHMARK.json lists %v", got, names)
				}
			})
		}
	}
}
