package experiments

import (
	"sync"
	"testing"

	"pbppm/internal/tracegen"
)

// Workloads are deterministic, so tests share one instance per profile.
// Tests must not mutate them.
var (
	nasaOnce sync.Once
	nasaW    *Workload
	nasaErr  error
	ucbOnce  sync.Once
	ucbW     *Workload
	ucbErr   error
)

// testNASA is a scaled-down NASA-like workload for fast tests.
func testNASA(t *testing.T) *Workload {
	t.Helper()
	nasaOnce.Do(func() {
		p := tracegen.NASA()
		p.Days = 4
		p.SessionsPerDay = 500
		p.Pages = 300
		p.Browsers = 200
		p.CrawlerPagesPerDay = 150
		nasaW, nasaErr = FromProfile(p)
	})
	if nasaErr != nil {
		t.Fatal(nasaErr)
	}
	return nasaW
}

func testUCB(t *testing.T) *Workload {
	t.Helper()
	ucbOnce.Do(func() {
		p := tracegen.UCBCS()
		p.Days = 4
		p.SessionsPerDay = 900
		p.Pages = 600
		p.Browsers = 250
		p.CrawlerPagesPerDay = 150
		ucbW, ucbErr = FromProfile(p)
	})
	if ucbErr != nil {
		t.Fatal(ucbErr)
	}
	return ucbW
}

func TestSmokeSweep(t *testing.T) {
	w := testNASA(t)
	rows, err := Sweep(w, SweepConfig{MaxTrainDays: 3})
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
}
