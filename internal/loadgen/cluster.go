package loadgen

// Cluster self-hosting: loadbench's cluster mode boots an N-shard
// prefetch cluster in-process, on a loopback listener, with the same
// warm-trained model a prefetchd boot would build — so a capacity run
// can compare shard counts (or price a mid-run rebalance) without
// orchestrating N server processes. The generator then targets the
// harness URL like any external server.

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/core"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/server"
	"pbppm/internal/session"
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
	// MaxHints overrides the per-response hint cap when positive.
	MaxHints int
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

// warmModel trains the same warm-start model a prefetchd boot builds:
// a generated history over the site, popularity-ranked, trained into a
// PB-PPM tree, space-optimized, and frozen into its immutable arena
// image — the published-snapshot form the cluster replicates to every
// shard.
func warmModel(site *tracegen.Site, p tracegen.Profile, warmDays int) (markov.Predictor, *popularity.Ranking, error) {
	warm := p
	warm.Days = warmDays
	tr, err := tracegen.GenerateOn(site, warm)
	if err != nil {
		return nil, nil, fmt.Errorf("generating warm history: %w", err)
	}
	sessions := session.Sessionize(tr, session.Config{})

	rank := popularity.NewRanking()
	for _, s := range sessions {
		for _, v := range s.Views {
			rank.Observe(v.URL, 1)
		}
	}
	model := core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
	seqs := make([][]string, len(sessions))
	for i, s := range sessions {
		seqs[i] = s.URLs()
	}
	markov.TrainAll(model, seqs)
	model.Optimize()

	return markov.Freeze(model), rank, nil
}

// BootCluster builds the warm model, boots an N-shard cluster serving
// the site, and binds it to a loopback listener. Close shuts it down.
func BootCluster(cfg ClusterConfig) (*ClusterHarness, error) {
	if cfg.Site == nil {
		return nil, fmt.Errorf("loadgen: cluster harness needs a site")
	}
	warmDays := cfg.WarmDays
	if warmDays <= 0 {
		warmDays = 2
	}
	start := time.Now()
	model, rank, err := warmModel(cfg.Site, cfg.Profile, warmDays)
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
			Grades:    rank,
			MaxHints:  cfg.MaxHints,
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
