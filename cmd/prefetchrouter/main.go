// Command prefetchrouter runs the routing tier of a multi-process
// prefetching cluster: the same cluster.Cluster that prefetchd -shards
// runs in process, with a fixed set of prefetchd backends as its ring
// members. It consistent-hashes each request's client identity onto
// a backend and reverse-proxies the request to it, stamping the
// resolved identity on the forwarded copy so shards booted with
// -router-addr pointing at this host can trust it. Shards keep their
// models in sync through the snapshot-distribution channel (prefetchd
// -snapshot-addr), not through the router — the router carries only
// request traffic.
//
// Usage:
//
//	prefetchrouter -backends http://10.0.0.11:8080,http://10.0.0.12:8080
//	               [-addr :8080] [-admin-addr :8081]
//	               [-trusted-peers host1,host2] [-log-level info]
//
// The admin listener serves /metrics (pbppm_shard_requests_total per
// backend, pbppm_cluster_routing_errors_total by reason,
// pbppm_cluster_backend_errors_total per shard), /healthz, and
// /debug/pprof. A dead backend answers 502 and is counted; the ring is
// static, so recovery is the backend coming back, not a membership
// change.
//
// Try it:
//
//	curl -i -H 'X-Client-ID: me' http://localhost:8080/d0/page0000.html
//	curl http://localhost:8081/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/obs"
)

func main() {
	addr := flag.String("addr", ":8080", "routing listen address")
	adminAddr := flag.String("admin-addr", ":8081", "admin listen address for /metrics, /healthz, /debug; empty disables")
	backends := flag.String("backends", "", "comma-separated shard base URLs, e.g. http://10.0.0.11:8080,http://10.0.0.12:8080 (required)")
	trustedPeers := flag.String("trusted-peers", "", "comma-separated upstream hosts allowed to assert X-Client-ID (empty trusts any peer)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, or error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "prefetchrouter: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, *addr, *adminAddr, *backends, *trustedPeers, logger); err != nil {
		fmt.Fprintf(os.Stderr, "prefetchrouter: %v\n", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag into its non-empty elements.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func run(ctx context.Context, addr, adminAddr, backends, trustedPeers string, logger *slog.Logger) error {
	log := obs.Component(logger, "prefetchrouter")
	backendList := splitList(backends)
	if len(backendList) == 0 {
		return fmt.Errorf("at least one -backends URL is required")
	}

	reg := obs.NewRegistry()
	rt, err := cluster.New(cluster.Config{
		Backends:     backendList,
		TrustedPeers: splitList(trustedPeers),
		Obs:          reg,
		Logger:       logger,
	})
	if err != nil {
		return err
	}

	web := &http.Server{Handler: rt}
	webLn, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("binding %s: %w", addr, err)
	}

	var admin *http.Server
	var adminLn net.Listener
	if adminAddr != "" {
		admin = &http.Server{Handler: obs.NewAdminMux(reg)}
		if adminLn, err = net.Listen("tcp", adminAddr); err != nil {
			webLn.Close()
			return fmt.Errorf("binding admin %s: %w", adminAddr, err)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, 2)
	go func() { errs <- web.Serve(webLn) }()
	log.Info("routing", "addr", webLn.Addr().String(),
		"backends", len(backendList), "trusted_peers", trustedPeers)
	if adminLn != nil {
		go func() { errs <- admin.Serve(adminLn) }()
		log.Info("admin listening", "addr", adminLn.Addr().String())
	}

	var runErr error
	select {
	case <-ctx.Done():
		log.Info("shutdown signal received")
	case err := <-errs:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Error("listener failed", "err", err)
			runErr = err
		}
		cancel()
	}

	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := web.Shutdown(shutdownCtx); err != nil {
		log.Warn("draining routing listener", "err", err)
	}
	if admin != nil {
		if err := admin.Shutdown(shutdownCtx); err != nil {
			log.Warn("draining admin listener", "err", err)
		}
	}
	return runErr
}
