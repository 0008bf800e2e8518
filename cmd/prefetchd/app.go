package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/loadgen"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/tracegen"
)

// appConfig is the parsed flag set; main fills it from the command
// line, tests construct it directly.
type appConfig struct {
	addr        string
	adminAddr   string
	profileName string
	deltaEvery  time.Duration
	compactNear time.Duration
	traceSample int
	slo         string
	sloFile     string
	liveWindow  time.Duration

	// warmDays sizes the generated warm-start history; tests and load
	// benchmarks shrink it for fast boots.
	warmDays int
	// pages / sessionsPerDay override the profile's site size and
	// traffic density when positive, so a capacity run can boot a small
	// server in seconds. A load generator hitting this server must use
	// the same overrides or its walkers will 404.
	pages          int
	sessionsPerDay int
	// maxHints overrides the per-response hint cap when positive.
	maxHints int
	// shards > 1 serves through an in-process consistent-hash cluster
	// (internal/cluster): a router hashing client identity onto that
	// many shard servers, each holding the replicated model.
	shards int
	// routerAddr names a trusted upstream router host. In single-server
	// mode the server honors X-Client-ID only from this peer; in
	// cluster mode it is the cluster router's own ingress trust. Empty
	// keeps the legacy trust-any-peer contract.
	routerAddr string
	// snapshotAddr, when set, runs this process as a snapshot follower:
	// instead of training locally it polls the named publisher endpoint
	// (another prefetchd's admin /snapshot) and installs each validated
	// model + ranking through the crash-safe publish gate. Warm-start
	// training and the maintenance loops are skipped; the process serves
	// without hints until the first snapshot installs.
	snapshotAddr string
	// snapshotPoll paces the follower's poll loop; zero selects the
	// follower default. Each poll long-polls the publisher, so a new
	// version normally propagates in one round trip.
	snapshotPoll time.Duration
}

// serving abstracts the request tier — one server.Server, or the
// cluster router in front of N of them. Everything the app reads or
// publishes goes through this surface, so both deployments share the
// maintenance loop, SLO engine, and admin endpoints.
type serving interface {
	http.Handler
	Stats() server.Stats
	QualityTotal() quality.Snapshot
	ExpireSessions() int
	BindSLIs(*obs.SLOEngine)
	SetPredictor(markov.Predictor)
	SetGrader(popularity.Grader)
}

// defaultSLO is the out-of-the-box objective set: demand latency plus
// the paper's two headline quality metrics, evaluated over the live
// rolling windows.
const defaultSLO = "name=demand-latency,kind=latency,threshold=200ms,target=0.95"

// app is the assembled process: model, server, maintenance, SLO
// engine, and the two HTTP listeners. newApp builds everything without
// binding a socket; run serves until the context is cancelled, then
// drains and logs the final quality and SLO snapshot.
type app struct {
	cfg    appConfig
	log    *slog.Logger
	reg    *obs.Registry
	tracer *obs.Tracer
	maint  *maintain.Maintainer
	srv    *server.Server   // single-server mode; nil when sharded
	clu    *cluster.Cluster // cluster mode; nil when single-server
	serve  serving          // whichever of srv/clu is active
	engine *obs.SLOEngine
	ann    *obs.Annotations
	pub    *maintain.Publisher // serves /snapshot; nil in follower mode
	fol    *maintain.Follower  // polls -snapshot-addr; nil otherwise

	web   *http.Server
	admin *http.Server // nil when cfg.adminAddr is empty

	webLn   net.Listener
	adminLn net.Listener

	pages   int
	profile tracegen.Profile
}

// loadObjectives resolves the SLO configuration: -slo-file wins when
// set (file grammar = flag grammar plus newlines and # comments),
// otherwise the -slo flag string.
func loadObjectives(cfg appConfig) ([]obs.Objective, error) {
	src := cfg.slo
	if cfg.sloFile != "" {
		raw, err := os.ReadFile(cfg.sloFile)
		if err != nil {
			return nil, fmt.Errorf("reading -slo-file: %w", err)
		}
		src = string(raw)
	}
	return obs.ParseObjectives(src)
}

// newApp builds the full process from cfg: synthetic site, warm-start
// model, maintainer with publish annotations, hint-serving server with
// live scoring, SLO engine bound to the server's SLIs, and both HTTP
// servers (unbound; run or listen binds them).
func newApp(cfg appConfig, logger *slog.Logger) (*app, error) {
	if cfg.warmDays <= 0 {
		cfg.warmDays = 3
	}
	if cfg.compactNear <= 0 {
		return nil, fmt.Errorf("-compact-interval must be positive, got %v", cfg.compactNear)
	}
	a := &app{cfg: cfg, log: obs.Component(logger, "prefetchd")}

	var p tracegen.Profile
	switch cfg.profileName {
	case "nasa":
		p = tracegen.NASA()
	case "ucbcs":
		p = tracegen.UCBCS()
	default:
		return nil, fmt.Errorf("unknown profile %q", cfg.profileName)
	}
	if cfg.pages > 0 {
		p.Pages = cfg.pages
	}
	if cfg.sessionsPerDay > 0 {
		p.SessionsPerDay = cfg.sessionsPerDay
	}
	a.profile = p

	site, err := tracegen.BuildSite(p)
	if err != nil {
		return nil, fmt.Errorf("building site: %w", err)
	}
	store := loadgen.StoreFromSite(site)
	a.pages = len(site.Pages)

	a.reg = obs.NewRegistry()
	a.tracer = obs.NewTracer(a.reg, cfg.traceSample)
	a.ann = obs.NewAnnotations()

	objectives, err := loadObjectives(cfg)
	if err != nil {
		return nil, err
	}
	a.engine = obs.NewSLOEngine(objectives)
	a.engine.SetAnnotations(a.ann)
	a.engine.Register(a.reg)

	// The serving tier is constructed after the maintainer (the warm
	// model feeds its Config), so OnPublish closes over the app; the
	// serve field is assigned before the maintenance loop publishes.
	a.maint, err = maintain.New(maintain.Config{
		Factory:     loadgen.PBFactory,
		Obs:         a.reg,
		Logger:      logger,
		Annotations: a.ann,
		OnPublish: func(p markov.Predictor) {
			if a.serve == nil {
				return
			}
			// In cluster mode this fans the frozen arena snapshot out to
			// every shard; each swaps its predictor pointer atomically.
			a.serve.SetPredictor(p)
			// Compactions re-derive the popularity ranking; regrade
			// live hint events with the one the new model was built
			// from. Delta merges keep the previous ranking.
			if r := a.maint.Ranking(); r != nil {
				a.serve.SetGrader(r)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("creating maintainer: %w", err)
	}
	var model markov.Predictor
	if cfg.snapshotAddr == "" {
		// Warm start: train on a generated history of the same site. A
		// snapshot follower skips this — its model arrives over the wire
		// from the publisher, which trained the real one.
		model, err = loadgen.WarmStart(a.maint, site, p, cfg.warmDays)
		if err != nil {
			return nil, err
		}
		var arenaBytes int
		if ah, ok := model.(markov.ArenaHolder); ok {
			arenaBytes = ah.Arena().SizeBytes()
		}
		a.log.Info("warm model trained", "sessions", a.maint.WindowSize(),
			"nodes", model.NodeCount(), "arena_bytes", arenaBytes)
	} else {
		// Follower: no local model until the first snapshot installs;
		// the server serves documents without hints in the meantime.
		fol, err := maintain.NewFollower(maintain.FollowerConfig{
			URL:     cfg.snapshotAddr,
			Poll:    cfg.snapshotPoll,
			Wait:    25 * time.Second,
			Install: a.maint.InstallSnapshot,
			Obs:     a.reg,
			Logger:  logger,
		})
		if err != nil {
			return nil, fmt.Errorf("creating snapshot follower: %w", err)
		}
		a.fol = fol
		a.log.Info("snapshot follower mode", "publisher", cfg.snapshotAddr)
	}

	sc := server.Config{
		Predictor:  model,
		Obs:        a.reg,
		Tracer:     a.tracer,
		LiveWindow: cfg.liveWindow,
		MaxHints:   cfg.maxHints,
		Grades:     a.maint.Ranking(),
		// Completed live sessions flow into the maintenance window so
		// rebuilds track real traffic. Maintainer.Observe locks, so the
		// callback is safe shared across cluster shards.
		OnSessionEnd: func(client string, urls []string, last time.Time) {
			s := session.Session{Client: client}
			for i, u := range urls {
				s.Views = append(s.Views, session.PageView{
					URL:  u,
					Time: last.Add(time.Duration(i-len(urls)) * time.Minute),
				})
			}
			a.maint.Observe(s)
		},
	}
	if a.fol != nil {
		// A follower never trains: completed live sessions would only
		// accumulate in a window no rebuild will ever read.
		sc.OnSessionEnd = nil
	}
	var trusted []string
	if cfg.routerAddr != "" {
		trusted = []string{cfg.routerAddr}
	}
	if cfg.shards > 1 {
		a.clu, err = cluster.New(cluster.Config{
			Shards:       cfg.shards,
			Store:        store,
			ShardConfig:  sc,
			Obs:          a.reg,
			TrustedPeers: trusted,
		})
		if err != nil {
			return nil, fmt.Errorf("creating cluster: %w", err)
		}
		a.serve = a.clu
	} else {
		sc.TrustedPeers = trusted
		a.srv = server.New(store, sc)
		a.serve = a.srv
	}
	a.serve.BindSLIs(a.engine)

	mux := http.NewServeMux()
	mux.Handle("/", a.serve)
	a.web = &http.Server{Handler: mux}

	admin := obs.NewAdminMux(a.reg, nil)
	if a.fol == nil {
		// Publisher role: offer every published model (warm build, delta
		// merges, compactions) to out-of-process followers.
		a.pub = maintain.NewPublisher(a.maint, maintain.PublisherConfig{
			Obs:    a.reg,
			Logger: logger,
		})
		admin.Handle("/snapshot", a.pub)
	}
	admin.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		writeStats(w, a.serve.Stats(), a.maint.Rebuilds(), a.maint.DeltaMerges())
	})
	admin.Handle("/debug/traces", a.tracer.TracesHandler())
	admin.Handle("/debug/slo", a.engine.Handler())
	if a.clu != nil {
		// Shard servers expose their metrics on per-shard registries;
		// mount each under /debug/shard/<id>/metrics.
		admin.HandleFunc("/debug/shard/", func(w http.ResponseWriter, r *http.Request) {
			rest := strings.TrimPrefix(r.URL.Path, "/debug/shard/")
			idStr, tail, _ := strings.Cut(rest, "/")
			id, err := strconv.Atoi(idStr)
			if err != nil || tail != "metrics" {
				http.NotFound(w, r)
				return
			}
			reg := a.clu.ShardRegistry(id)
			if reg == nil {
				http.NotFound(w, r)
				return
			}
			reg.Handler().ServeHTTP(w, r)
		})
	}
	if cfg.adminAddr != "" {
		a.admin = &http.Server{Handler: admin}
	}
	return a, nil
}

// listen binds the serving and admin sockets without serving yet, so
// callers (tests especially, with ":0" addresses) can read the bound
// addresses before traffic starts. run calls it when it has not been
// called already.
func (a *app) listen() error {
	ln, err := net.Listen("tcp", a.cfg.addr)
	if err != nil {
		return fmt.Errorf("binding %s: %w", a.cfg.addr, err)
	}
	a.webLn = ln
	if a.admin != nil {
		aln, err := net.Listen("tcp", a.cfg.adminAddr)
		if err != nil {
			ln.Close()
			a.webLn = nil
			return fmt.Errorf("binding admin %s: %w", a.cfg.adminAddr, err)
		}
		a.adminLn = aln
	}
	return nil
}

// run serves until ctx is cancelled or a listener fails, then shuts
// down gracefully: the maintenance loops stop, both listeners drain
// in-flight requests, and the final stats, live §2.3 quality, and SLO
// snapshot are logged so a terminated process leaves its last
// measurements in the log.
func (a *app) run(ctx context.Context) error {
	if a.webLn == nil {
		if err := a.listen(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go a.maintLoop(ctx)

	errs := make(chan error, 2)
	go func() { errs <- a.web.Serve(a.webLn) }()
	shards := 1
	if a.clu != nil {
		shards = len(a.clu.ShardIDs())
	}
	a.log.Info("serving", "pages", a.pages, "addr", a.webLn.Addr().String(),
		"profile", a.profile.Name, "shards", shards,
		"delta_interval", a.cfg.deltaEvery,
		"compact_interval", a.cfg.compactNear)
	if a.adminLn != nil {
		go func() { errs <- a.admin.Serve(a.adminLn) }()
		a.log.Info("admin listening", "addr", a.adminLn.Addr().String())
	}

	var runErr error
	select {
	case <-ctx.Done():
		a.log.Info("shutdown signal received")
	case err := <-errs:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			a.log.Error("listener failed", "err", err)
			runErr = err
		}
		cancel()
	}

	shutdownCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if err := a.web.Shutdown(shutdownCtx); err != nil {
		a.log.Warn("draining serving listener", "err", err)
	}
	if a.admin != nil {
		if err := a.admin.Shutdown(shutdownCtx); err != nil {
			a.log.Warn("draining admin listener", "err", err)
		}
	}

	a.logFinal()
	return runErr
}

// logFinal emits the shutdown snapshot: request counters, the live
// paper metrics (§2.3 precision / hit ratio / traffic increase as
// scored against real client reports), and each SLO objective's
// burn-rate state.
func (a *app) logFinal() {
	st := a.serve.Stats()
	a.log.Info("final stats",
		"demand", st.DemandRequests,
		"prefetch", st.PrefetchRequests,
		"not_found", st.NotFound,
		"hints_issued", st.HintsIssued,
		"hint_fetches", st.HintFetches,
		"hint_hits", st.HintHits,
		"sessions", st.SessionsStarted,
		"rebuilds", a.maint.Rebuilds(),
		"delta_merges", a.maint.DeltaMerges())
	q := a.serve.QualityTotal()
	a.log.Info("final quality",
		"requests", q.Requests,
		"prefetched_docs", q.PrefetchedDocs,
		"prefetch_hits", q.PrefetchHits,
		"precision", q.Precision(),
		"hit_ratio", q.HitRatio(),
		"traffic_increase", q.TrafficIncrease())
	rep := a.engine.Evaluate()
	for _, o := range rep.Objectives {
		a.log.Info("final slo", "objective", o.Name, "kind", o.Kind,
			"target", o.Target, "state", o.State)
	}
}

// maintLoop runs model maintenance until ctx is cancelled: delta
// merges every delta interval, compactions every compact interval (see
// maintain.Maintainer.Run). Published models reach the server through
// maintain.Config.OnPublish. Client-context expiry runs on its own
// ticker, every delta interval or, without deltas, every compact
// interval, so session trimming never waits behind a long compaction.
func (a *app) maintLoop(ctx context.Context) {
	stop := make(chan struct{})
	go func() {
		<-ctx.Done()
		close(stop)
	}()

	expireEvery := a.cfg.deltaEvery
	if expireEvery <= 0 {
		expireEvery = a.cfg.compactNear
	}
	go func() {
		ticker := time.NewTicker(expireEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				a.serve.ExpireSessions()
			}
		}
	}()

	if a.fol != nil {
		// Follower: the model arrives over the snapshot channel; local
		// training loops stay cold.
		a.fol.Run(ctx)
		return
	}
	a.maint.Run(a.cfg.deltaEvery, a.cfg.compactNear, stop)
}

// writeStats renders the plain-text stats snapshot for /debug/stats.
func writeStats(w http.ResponseWriter, st server.Stats, rebuilds, deltaMerges int) {
	fmt.Fprintf(w, "demand %d\nprefetch %d\nnot-found %d\nhints %d\nhint-fetches %d\nhint-hits %d\nsessions %d\nrebuilds %d\ndelta-merges %d\n",
		st.DemandRequests, st.PrefetchRequests, st.NotFound,
		st.HintsIssued, st.HintFetches, st.HintHits,
		st.SessionsStarted, rebuilds, deltaMerges)
}
