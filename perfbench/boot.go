package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"pbppm/internal/cluster"
	"pbppm/internal/core"
	"pbppm/internal/loadgen"
	"pbppm/internal/maintain"
	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/server"
	"pbppm/internal/session"
	"pbppm/internal/tracegen"
)

// warmDays is the training window of the warm model: the paper's
// 7-day window, which is also the maintainer's default window.
const warmDays = 7

// siteModel is one site and the warm PB-PPM model prefetchd builds
// over it: a generated history of the site, sessionized, observed by a
// maintainer, and rebuilt (ranked, trained, optimized, frozen).
type siteModel struct {
	nav   *loadgen.Navigator
	store server.MapStore
	maint *maintain.Maintainer
	// warm is the frozen model the warm Rebuild published.
	warm markov.Predictor
	// warmRebuild is the wall time of that Rebuild, call to publish.
	warmRebuild time.Duration

	// onPublish forwards later publishes to the serving tier; it is set
	// before any maintenance runs.
	onPublish func(markov.Predictor)
}

// buildModel builds the site and its warm model the way prefetchd's
// boot does.
func buildModel(p tracegen.Profile) (*siteModel, error) {
	p.Days = warmDays
	site, err := tracegen.BuildSite(p)
	if err != nil {
		return nil, fmt.Errorf("building site: %w", err)
	}
	tr, err := tracegen.GenerateOn(site, p)
	if err != nil {
		return nil, fmt.Errorf("generating warm history: %w", err)
	}
	sessions := session.Sessionize(tr, session.Config{})
	nav, err := loadgen.NewNavigator(site, p)
	if err != nil {
		return nil, err
	}
	sm := &siteModel{nav: nav, store: loadgen.StoreFromSite(site)}
	sm.maint, err = maintain.New(maintain.Config{
		Factory: func(rank *popularity.Ranking) markov.Predictor {
			return core.New(rank, core.Config{RelProbCutoff: 0.01, DropSingletons: true})
		},
		OnPublish: func(m markov.Predictor) {
			if sm.onPublish != nil {
				sm.onPublish(m)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("creating maintainer: %w", err)
	}
	// Shift the generated history so it ends now and the window keeps
	// all of it.
	shift := time.Since(tr.Epoch.Add(warmDays * 24 * time.Hour))
	for _, s := range sessions {
		views := make([]session.PageView, len(s.Views))
		for i, v := range s.Views {
			v.Time = v.Time.Add(shift)
			views[i] = v
		}
		s.Views = views
		sm.maint.Observe(s)
	}
	start := time.Now()
	sm.warm = sm.maint.Rebuild(time.Now())
	sm.warmRebuild = time.Since(start)
	if sm.warm == nil || sm.warm.NodeCount() == 0 {
		return nil, fmt.Errorf("warm model is empty")
	}
	return sm, nil
}

// arenaBytes is the size of a frozen model's arena image, or 0.
func arenaBytes(p markov.Predictor) int {
	if ah, ok := p.(markov.ArenaHolder); ok && ah.Arena() != nil {
		return ah.Arena().SizeBytes()
	}
	return 0
}

// stack is one booted serving stack and the clients' transport to it.
type stack struct {
	srv *server.Server   // single-server workloads
	clu *cluster.Cluster // flash-crowd

	// hc is shared by every virtual client; its transport is the
	// checking round tripper in front of the in-memory or loopback hop.
	hc    *http.Client
	check *checker
	base  string

	web   *http.Server // loopback listener; nil in process
	conns atomic.Int64 // TCP connections the client transport dialed

	hints hintCounts
}

// stackConfig selects how a workload's stack is assembled.
type stackConfig struct {
	shards   int  // >1 serves through an in-process cluster
	loopback bool // serve over a loopback HTTP listener
	// sessionIdle, when positive, shortens the server's session idle
	// rule and feeds ended sessions to the maintainer.
	sessionIdle time.Duration
}

// boot assembles the serving stack over sm, wrapping each layer's
// public seam with tr when tracing.
func boot(sm *siteModel, cfg stackConfig, tr *tracer, maxConns int) (*stack, error) {
	st := &stack{}
	var store server.ContentStore = sm.store
	var pred markov.Predictor = sm.warm
	if tr != nil {
		store = tr.store(sm.store)
		pred = tr.predictor(sm.warm)
	}
	sc := server.Config{
		Predictor:   pred,
		Grades:      sm.maint.Ranking(),
		Obs:         obs.NewRegistry(),
		OnHintEvent: st.hints.observe,
		SessionIdle: cfg.sessionIdle,
	}
	if cfg.sessionIdle > 0 {
		maint := sm.maint
		observe := maint.Observe
		if tr != nil {
			observe = tr.observe(maint.Observe)
		}
		sc.OnSessionEnd = func(client string, urls []string, last time.Time) {
			s := session.Session{Client: client}
			for i, u := range urls {
				s.Views = append(s.Views, session.PageView{
					URL:  u,
					Time: last.Add(time.Duration(i-len(urls)) * time.Minute),
				})
			}
			observe(s)
		}
	}

	var h http.Handler
	if cfg.shards > 1 {
		clu, err := cluster.New(cluster.Config{Shards: cfg.shards, Store: store, ShardConfig: sc, Obs: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
		st.clu = clu
		h = clu
	} else {
		st.srv = server.New(store, sc)
		h = st.srv
	}
	// Later publishes (churn's delta merges and rebuilds) reach the
	// serving tier the way prefetchd wires them.
	sm.onPublish = func(p markov.Predictor) {
		if tr != nil {
			p = tr.predictor(p)
		}
		st.setPredictor(p)
		if r := sm.maint.Ranking(); r != nil {
			st.setGrader(r)
		}
	}
	if tr != nil {
		h = tr.handler(h)
	}

	var rt http.RoundTripper
	if cfg.loopback {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("binding loopback listener: %w", err)
		}
		st.web = &http.Server{Handler: h}
		go st.web.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
		st.base = "http://" + ln.Addr().String()
		dialer := &net.Dialer{}
		rt = &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				st.conns.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
	} else {
		st.base = "http://inproc"
		rt = inproc{h: h}
	}
	st.check = newChecker(sm.store, rt)
	var top http.RoundTripper = st.check
	if tr != nil {
		top = tr.roundTripper(st.check)
	}
	st.hc = &http.Client{Transport: top}
	return st, nil
}

func (st *stack) setPredictor(p markov.Predictor) {
	if st.clu != nil {
		st.clu.SetPredictor(p)
		return
	}
	st.srv.SetPredictor(p)
}

func (st *stack) setGrader(g popularity.Grader) {
	if st.clu != nil {
		st.clu.SetGrader(g)
		return
	}
	st.srv.SetGrader(g)
}

// stats returns the serving tier's counters, summed over shards.
func (st *stack) stats() server.Stats {
	if st.clu != nil {
		return st.clu.Stats()
	}
	return st.srv.Stats()
}

// shardDemand returns each shard's demand count (one entry for a
// single server).
func (st *stack) shardDemand() []int64 {
	if st.clu == nil {
		return []int64{st.srv.Stats().DemandRequests}
	}
	var out []int64
	for _, id := range st.clu.ShardIDs() {
		out = append(out, st.clu.Shard(id).Stats().DemandRequests)
	}
	return out
}

// newClient builds one cooperating prefetching client.
func (st *stack) newClient(id string, sync bool) *server.Client {
	c, err := server.NewClient(server.ClientConfig{
		ID: id, BaseURL: st.base, HTTPClient: st.hc, SynchronousPrefetch: sync,
	})
	if err != nil {
		// ID and BaseURL are always set: a failure here is a bug.
		panic(err)
	}
	return c
}

// close stops the loopback listener and its idle connections.
func (st *stack) close() {
	if st.web != nil {
		st.web.Close()
	}
	if t, ok := st.check.next.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// hintCounts tallies the server's hint-lifecycle events.
type hintCounts struct {
	issued, fetched, hit, wasted atomic.Int64
}

func (h *hintCounts) observe(ev server.HintEvent) {
	switch ev.Type {
	case server.HintIssued:
		h.issued.Add(1)
	case server.HintFetched:
		h.fetched.Add(1)
	case server.HintHit:
		h.hit.Add(1)
	case server.HintWasted:
		h.wasted.Add(1)
	}
}

func (h *hintCounts) snapshot() [4]int64 {
	return [4]int64{h.issued.Load(), h.fetched.Load(), h.hit.Load(), h.wasted.Load()}
}
