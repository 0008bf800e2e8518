package loadgen

import (
	"context"
	"testing"
	"time"

	"pbppm/internal/obs"
)

// The harness boots a warm-trained cluster the generator can drive
// like any external server: traffic completes cleanly, lands spread
// across shards, and a mid-life rebalance reports its cost.
func TestBootClusterServesGeneratorTraffic(t *testing.T) {
	site, p := testSite(t)
	reg := obs.NewRegistry()
	h, err := BootCluster(ClusterConfig{
		Shards:  2,
		Site:    site,
		Profile: p,
		Obs:     reg,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatalf("BootCluster: %v", err)
	}
	defer h.Close()

	g, err := New(Config{
		ServerURL: h.URL,
		Site:      site,
		Profile:   p,
		Clients:   10,
		Seed:      7,
		Timeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := g.Run(context.Background(), Scenario{Name: "cluster-smoke", Slots: []Slot{
		{Label: "steady", RPS: 150, Duration: 300 * time.Millisecond},
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ErrorRate() != 0 {
		t.Fatalf("cluster produced error rate %v", res.ErrorRate())
	}

	st := h.Cluster.Stats()
	if st.DemandRequests == 0 {
		t.Fatal("cluster served no demand requests")
	}
	if st.HintsIssued == 0 {
		t.Fatal("warm model issued no hints through the cluster")
	}
	var spread int
	for _, id := range h.Cluster.ShardIDs() {
		if h.Cluster.Shard(id).Stats().DemandRequests > 0 {
			spread++
		}
	}
	if spread != 2 {
		t.Errorf("traffic reached %d of 2 shards", spread)
	}

	// A join while sessions are open reports the remap cost.
	if _, rep, err := h.Cluster.AddShard(); err != nil || rep.Kind != "join" || rep.ShardsAfter != 3 {
		t.Errorf("rebalance report = %+v", rep)
	}
}
