package loadgen

// Cluster self-hosting: loadbench's cluster mode boots an N-shard
// prefetch cluster in-process, on a loopback listener, with the
// warm-started model a prefetchd boot serves — so a capacity run can
// compare shard counts (or price a mid-run rebalance) without
// orchestrating N server processes. The generator then targets the
// harness URL like any external server.

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/maintain"
	"pbppm/internal/obs"
	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// ClusterConfig parameterizes a self-hosted cluster harness.
type ClusterConfig struct {
	// Shards is the initial shard count; required.
	Shards int
	// Site is the synthetic site to serve and train on; required. The
	// generator driving the harness must be built from the same site.
	Site *tracegen.Site
	// Profile generated Site and shapes the warm-training history.
	Profile tracegen.Profile
	// WarmDays sizes the warm-training history; zero selects 2 days.
	WarmDays int
	// Obs registers the router metrics (per-shard request counters,
	// rebalance costs); nil keeps them process-internal.
	Obs *obs.Registry
	// Logf receives boot progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// ClusterHarness is a running in-process cluster behind a loopback
// HTTP listener.
type ClusterHarness struct {
	// Cluster is the live cluster, exposed so the driver can rebalance
	// mid-run and read per-shard accounting.
	Cluster *cluster.Cluster
	// URL is the router's base URL for generator traffic.
	URL string

	srv *http.Server
	ln  net.Listener
}

// BootCluster warm-starts a PB-PPM maintainer, boots an N-shard cluster
// serving the site and the model the maintainer publishes, and binds it
// to a loopback listener. Close shuts it down.
func BootCluster(cfg ClusterConfig) (*ClusterHarness, error) {
	if cfg.Site == nil {
		return nil, fmt.Errorf("loadgen: cluster harness needs a site")
	}
	warmDays := cfg.WarmDays
	if warmDays <= 0 {
		warmDays = 2
	}
	start := time.Now()
	maint, err := maintain.New(maintain.Config{Factory: PBFactory})
	if err != nil {
		return nil, err
	}
	model, err := WarmStart(maint, cfg.Site, cfg.Profile, warmDays)
	if err != nil {
		return nil, err
	}
	if cfg.Logf != nil {
		cfg.Logf("cluster warm model: %d nodes in %v", model.NodeCount(), time.Since(start).Round(time.Millisecond))
	}

	c, err := cluster.New(cluster.Config{
		Shards: cfg.Shards,
		Store:  StoreFromSite(cfg.Site),
		ShardConfig: server.Config{
			Predictor: model,
			Grades:    maint.Ranking(),
		},
		Obs: cfg.Obs,
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loadgen: binding cluster listener: %w", err)
	}
	h := &ClusterHarness{
		Cluster: c,
		URL:     "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: c},
		ln:      ln,
	}
	go h.srv.Serve(ln)
	if cfg.Logf != nil {
		cfg.Logf("cluster: %d shards serving %d pages at %s", cfg.Shards, len(cfg.Site.Pages), h.URL)
	}
	return h, nil
}

// Close stops the harness listener.
func (h *ClusterHarness) Close() error {
	return h.srv.Close()
}
