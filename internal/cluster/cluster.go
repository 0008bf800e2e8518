// Package cluster is the horizontal-scaling tier over internal/server:
// one router that consistent-hashes each request's client identity onto
// one of N shards, so per-client session state — the only mutable
// serving state the paper's model needs — stays local to one shard
// while every shard serves the same published model. A shard is either
// an in-process server.Server (Config.Shards) or a reverse proxy to a
// prefetchd running as its own process (Config.Backends); one
// ServeHTTP over one immutable routing table serves both.
//
// The split follows from the serving architecture. A published model
// snapshot is immutable (a single relocatable arena []byte), so
// replication is "ship the arena bytes, swap the pointer": SetPredictor
// hands every in-process shard the same frozen snapshot and each shard
// swaps its own atomic pointer — no shard-local training, no
// coordination — while remote shards install it from the snapshot
// channel (maintain.Follower). Everything per-client (session contexts,
// outstanding hint records, hit reports) is keyed by the identity the
// router hashes on, so routing by that identity makes each client's
// serving history whole on exactly one shard: hints are issued and
// scored where the client's context lives, and client hit reports
// (X-Prefetch-Report) land on the shard that issued the hints. That is
// also why an N-shard cluster reproduces the single node's hint
// accounting exactly (see the equivalence tests).
//
// Identity is resolved once, at the router, under the router's own
// trust policy. An in-process shard receives it as an argument
// (server.Server.ServeClient). A remote shard receives it in the
// X-Client-ID header the reverse proxy stamps on its outbound copy of
// the request, and honours that header only from the router's host
// (prefetchd -router-addr; see server.IdentityPolicy). Either way a
// client cannot smuggle a forged X-Client-ID past the router to poison
// another client's session.
//
// In-process membership changes swap the routing table. The rebalance
// cost — open sessions whose owner arc moved, and the outstanding hints
// those sessions strand on the old owner — is measured and returned as
// a RebalanceReport and counted in pbppm_cluster_sessions_remapped_total
// and pbppm_cluster_hints_orphaned_total. A leaving shard's sessions
// are flushed through OnSessionEnd first, so its in-progress training
// data survives the departure. Remote backends are a fixed membership.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/server"
)

// Config parameterizes a cluster of in-process shards (Shards, Store,
// ShardConfig) or of remote prefetchd backends (Backends); the two do
// not mix.
type Config struct {
	// Shards is the initial in-process shard count; it must be at least
	// 1 unless Backends is set.
	Shards int
	// Backends are remote shard base URLs, e.g. "http://10.0.0.11:8080";
	// backend i gets shard ID i on the ring. Set, Shards and Store must
	// be zero. Each backend must trust this router's host to assert
	// client identity (prefetchd -router-addr).
	Backends []string
	// Store serves documents on every in-process shard; required with
	// Shards.
	Store server.ContentStore
	// ShardConfig is the base server configuration cloned per in-process
	// shard. Obs is overridden: each shard gets its own registry, so
	// per-shard expositions stay well-formed instead of merging
	// identically-named series. TrustedPeers does not apply: the router
	// hands each shard the identity it resolved. Callback fields
	// (OnSessionEnd, OnHintEvent) are shared across shards and must be
	// safe for concurrent use.
	ShardConfig server.Config
	// Obs registers the router's metrics: per-shard request counters,
	// the shard-count gauge, the rebalance cost counters and the routing
	// errors. Nil keeps them process-internal.
	Obs *obs.Registry
	// TrustedPeers is the router's own ingress trust policy — peers
	// allowed to assert X-Client-ID on requests entering the router
	// (e.g. an outer load balancer). Empty trusts any peer, the right
	// default when cooperating clients connect straight to the router.
	TrustedPeers []string
	// Logger receives remote backend failures, tagged component=router;
	// nil discards them.
	Logger *slog.Logger
}

// routerMetrics are the routing tier's own counters; per-shard request
// counters live on the members.
type routerMetrics struct {
	shards           *obs.Gauge
	rebalanceJoins   *obs.Counter
	rebalanceLeaves  *obs.Counter
	sessionsRemapped *obs.Counter
	hintsOrphaned    *obs.Counter
	noShard          *obs.Counter
	backendErr       *obs.Counter // registered only with remote backends
}

func newRouterMetrics(reg *obs.Registry) *routerMetrics {
	kind := func(v string) obs.Label { return obs.Label{Name: "kind", Value: v} }
	const rebalanceHelp = "Ring membership changes, by kind (join, leave)."
	return &routerMetrics{
		shards: reg.Gauge("pbppm_cluster_shards",
			"Shard instances currently on the hash ring."),
		rebalanceJoins:  reg.Counter("pbppm_cluster_rebalances_total", rebalanceHelp, kind("join")),
		rebalanceLeaves: reg.Counter("pbppm_cluster_rebalances_total", rebalanceHelp, kind("leave")),
		sessionsRemapped: reg.Counter("pbppm_cluster_sessions_remapped_total",
			"Open client sessions whose ring owner changed in a rebalance; their context restarts on the new owner."),
		hintsOrphaned: reg.Counter("pbppm_cluster_hints_orphaned_total",
			"Outstanding hint records stranded on the old owner by a rebalance; hit reports for them surface as unmatched on the new owner."),
		noShard: routingErrors(reg, "no_shard"),
	}
}

// routingErrors registers one reason of pbppm_cluster_routing_errors_total.
func routingErrors(reg *obs.Registry, reason string) *obs.Counter {
	return reg.Counter("pbppm_cluster_routing_errors_total",
		"Requests the routing tier could not deliver to a shard, by reason: "+
			"no_shard (empty ring) or backend (reverse-proxy round trip to the owner failed).",
		obs.Label{Name: "reason", Value: reason})
}

// member is one shard on the ring: an in-process server with its
// private metrics registry, or a reverse proxy to a remote backend.
type member struct {
	id       int
	requests *obs.Counter // pbppm_shard_requests_total{shard}

	srv *server.Server // in-process; nil for a remote backend
	reg *obs.Registry  // the in-process shard's own registry

	proxy *httputil.ReverseProxy // remote; nil in process
}

// table is one immutable routing state: the ring and the members it
// places, sorted by ID. Membership changes build a new table and swap
// the pointer, so ServeHTTP reads it without a lock.
type table struct {
	ring    *ring
	members []*member
}

func newTable(members []*member) *table {
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = m.id
	}
	return &table{ring: newRing(ids), members: members}
}

// member returns the member with the given ID, or nil.
func (t *table) member(id int) *member {
	for _, m := range t.members {
		if m.id == id {
			return m
		}
	}
	return nil
}

// clientKey carries the routed identity from ServeHTTP to a remote
// member's reverse proxy, which stamps it on the outbound request.
type clientKey struct{}

// Cluster routes requests to shards by consistent hash over client
// identity. It implements http.Handler; everything behind it is the
// same server.Server the single-node deployment runs, in this process
// or another.
type Cluster struct {
	cfg      Config
	identity server.IdentityPolicy
	metrics  *routerMetrics
	log      *slog.Logger
	table    atomic.Pointer[table]

	// mu serializes membership changes and publishes, so a joining
	// shard starts from the latest model and grader and no publish
	// misses it.
	mu     sync.Mutex
	pred   markov.Predictor
	grades popularity.Grader
	nextID int
}

// New builds a cluster of cfg.Shards in-process shards, or of one
// reverse-proxy member per cfg.Backends URL.
func New(cfg Config) (*Cluster, error) {
	c := &Cluster{
		cfg:      cfg,
		identity: server.NewIdentityPolicy(cfg.TrustedPeers),
		metrics:  newRouterMetrics(cfg.Obs),
		log:      obs.Component(cfg.Logger, "router"),
	}
	var members []*member
	if len(cfg.Backends) > 0 {
		if cfg.Shards != 0 || cfg.Store != nil {
			return nil, fmt.Errorf("cluster: Backends cannot be combined with Shards or Store")
		}
		c.metrics.backendErr = routingErrors(cfg.Obs, "backend")
		for i, b := range cfg.Backends {
			m, err := c.newBackend(i, b)
			if err != nil {
				return nil, err
			}
			members = append(members, m)
		}
	} else {
		if cfg.Shards < 1 {
			return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", cfg.Shards)
		}
		if cfg.Store == nil {
			return nil, fmt.Errorf("cluster: nil content store")
		}
		if p := cfg.ShardConfig.Predictor; p != nil {
			c.pred = markov.Freeze(p)
		}
		c.grades = cfg.ShardConfig.Grades
		for ; c.nextID < cfg.Shards; c.nextID++ {
			members = append(members, c.newShard(c.nextID))
		}
	}
	c.table.Store(newTable(members))
	c.metrics.shards.Set(int64(len(members)))
	return c, nil
}

// requestCounter registers shard id's pbppm_shard_requests_total.
func (c *Cluster) requestCounter(id int) *obs.Counter {
	return c.cfg.Obs.Counter("pbppm_shard_requests_total",
		"Requests routed to each shard by the consistent-hash ring.",
		obs.Label{Name: "shard", Value: strconv.Itoa(id)})
}

// newShard builds in-process shard id from the base config: a private
// registry and the latest published model and grader. The caller holds
// mu or is New.
func (c *Cluster) newShard(id int) *member {
	reg := obs.NewRegistry()
	sc := c.cfg.ShardConfig
	sc.Obs = reg
	sc.Predictor = c.pred
	sc.Grades = c.grades
	return &member{id: id, requests: c.requestCounter(id), srv: server.New(c.cfg.Store, sc), reg: reg}
}

// newBackend builds remote member id: a reverse proxy to base that
// stamps the routed identity on its outbound copy of each request.
func (c *Cluster) newBackend(id int, base string) (*member, error) {
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cluster: bad backend URL %q", base)
	}
	backendErrs := c.cfg.Obs.Counter("pbppm_cluster_backend_errors_total",
		"Reverse-proxy round trips that failed per shard backend (connection refused, reset, timeout); each also answered 502 and counted under routing_errors{reason=\"backend\"}.",
		obs.Label{Name: "shard", Value: strconv.Itoa(id)})
	proxy := &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(u)
			pr.SetXForwarded()
			pr.Out.Header.Set(server.HeaderClientID, pr.In.Context().Value(clientKey{}).(string))
		},
		// The default ErrorHandler logs to the process-global logger and
		// writes a bare 502 with no body or accounting. A dead shard is
		// an operational event the routing tier must surface: count it
		// per shard, log it with the backend address, and answer a
		// well-formed 502 the client can distinguish from the shard's
		// own errors.
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			c.metrics.backendErr.Inc()
			backendErrs.Inc()
			c.log.Warn("backend round trip failed",
				"shard", id, "backend", u.Host, "path", r.URL.Path, "error", err)
			http.Error(w, fmt.Sprintf("cluster: shard %d backend unavailable", id),
				http.StatusBadGateway)
		},
	}
	return &member{id: id, requests: c.requestCounter(id), proxy: proxy}, nil
}

// ServeHTTP resolves the client identity under the router's trust
// policy, picks the owning shard off the current routing table, and
// hands the request over: to an in-process shard as a call carrying the
// identity, to a remote shard through its reverse proxy. It takes no
// lock, and the in-process hop copies nothing.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := c.identity.ClientOf(r)
	t := c.table.Load()
	id, ok := t.ring.owner(client)
	if !ok {
		c.metrics.noShard.Inc()
		http.Error(w, "cluster: no shards on the ring", http.StatusServiceUnavailable)
		return
	}
	m := t.member(id)
	m.requests.Inc()
	if m.srv != nil {
		m.srv.ServeClient(w, r, client)
		return
	}
	m.proxy.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), clientKey{}, client)))
}

// RebalanceReport prices one ring membership change.
type RebalanceReport struct {
	// Kind is "join" or "leave".
	Kind string
	// Shard is the shard that joined or left.
	Shard int
	// ShardsAfter is the ring size after the change.
	ShardsAfter int
	// SessionsRemapped counts open client sessions whose owner changed:
	// their context restarts cold on the new owner while the old copy
	// ages out.
	SessionsRemapped int
	// HintsOrphaned counts outstanding hint records inside those
	// sessions: hit reports for them will land on the new owner, match
	// nothing, and show up in pbppm_hint_reports_unmatched_total.
	HintsOrphaned int
}

// AddShard adds one in-process shard to the ring and returns its ID
// plus the rebalance cost: every open session on an existing shard
// whose arc moved to the newcomer is remapped, stranding its
// outstanding hints. A cluster of remote backends refuses.
func (c *Cluster) AddShard() (int, RebalanceReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cfg.Backends) > 0 {
		return 0, RebalanceReport{}, fmt.Errorf("cluster: the membership of remote backends is fixed")
	}
	old := c.table.Load()
	node := c.newShard(c.nextID)
	c.nextID++
	next := newTable(append(slices.Clone(old.members), node))

	rep := RebalanceReport{Kind: "join", Shard: node.id, ShardsAfter: len(next.members)}
	for _, m := range old.members {
		for _, os := range m.srv.OpenSessions() {
			if owner, _ := next.ring.owner(os.Client); owner != m.id {
				rep.SessionsRemapped++
				rep.HintsOrphaned += os.Hints
			}
		}
	}
	c.install(next, rep)
	return node.id, rep, nil
}

// RemoveShard takes one in-process shard off the ring. Every session
// open on it is remapped by definition; the departing shard is flushed
// through OnSessionEnd afterwards so its in-progress sessions still
// reach the training window. Removing a remote backend or the last
// shard is refused — a router with an empty ring can only 503.
func (c *Cluster) RemoveShard(id int) (RebalanceReport, error) {
	node, rep, err := c.remove(id)
	if err != nil {
		return RebalanceReport{}, err
	}
	// Outside the lock: delivery runs OnSessionEnd callbacks.
	node.srv.FlushSessions()
	return rep, nil
}

func (c *Cluster) remove(id int) (*member, RebalanceReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.table.Load()
	node := old.member(id)
	switch {
	case node == nil:
		return nil, RebalanceReport{}, fmt.Errorf("cluster: no shard %d", id)
	case node.srv == nil:
		return nil, RebalanceReport{}, fmt.Errorf("cluster: shard %d is a remote backend, whose membership is fixed", id)
	case len(old.members) == 1:
		return nil, RebalanceReport{}, fmt.Errorf("cluster: refusing to remove the last shard")
	}
	members := slices.DeleteFunc(slices.Clone(old.members), func(m *member) bool { return m == node })
	rep := RebalanceReport{Kind: "leave", Shard: id, ShardsAfter: len(members)}
	for _, os := range node.srv.OpenSessions() {
		rep.SessionsRemapped++
		rep.HintsOrphaned += os.Hints
	}
	c.install(newTable(members), rep)
	return node, rep, nil
}

// install swaps in the routing table of a membership change and counts
// its cost; the caller holds mu.
func (c *Cluster) install(next *table, rep RebalanceReport) {
	c.table.Store(next)
	c.metrics.shards.Set(int64(len(next.members)))
	if rep.Kind == "join" {
		c.metrics.rebalanceJoins.Inc()
	} else {
		c.metrics.rebalanceLeaves.Inc()
	}
	c.metrics.sessionsRemapped.Add(int64(rep.SessionsRemapped))
	c.metrics.hintsOrphaned.Add(int64(rep.HintsOrphaned))
}

// ShardIDs returns the IDs currently on the ring, sorted.
func (c *Cluster) ShardIDs() []int {
	members := c.table.Load().members
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = m.id
	}
	return ids
}

// Shard returns the in-process shard server by ID, or nil.
func (c *Cluster) Shard(id int) *server.Server {
	if m := c.table.Load().member(id); m != nil {
		return m.srv
	}
	return nil
}

// ShardRegistry returns an in-process shard's private metrics
// registry, or nil — each shard's exposition is served separately (the
// admin mux mounts them under /debug/shard/<id>/metrics).
func (c *Cluster) ShardRegistry(id int) *obs.Registry {
	if m := c.table.Load().member(id); m != nil {
		return m.reg
	}
	return nil
}

// Owner reports which shard the ring assigns a client identity to.
func (c *Cluster) Owner(client string) (int, bool) {
	return c.table.Load().ring.owner(client)
}

// servers returns the in-process shard servers on the ring, by ID; a
// cluster of remote backends has none.
func (c *Cluster) servers() []*server.Server {
	var out []*server.Server
	for _, m := range c.table.Load().members {
		if m.srv != nil {
			out = append(out, m.srv)
		}
	}
	return out
}

// SetPredictor replicates a published model snapshot to every
// in-process shard. A trainable model is frozen once, before the
// fan-out (markov.Freeze), so every shard serves the same immutable
// snapshot (one relocatable arena []byte) and in-process replication
// is the pointer swap each shard's SetPredictor performs; shards
// joining later start from it.
func (c *Cluster) SetPredictor(p markov.Predictor) {
	p = markov.Freeze(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pred = p
	for _, srv := range c.servers() {
		srv.SetPredictor(p)
	}
}

// SetGrader replicates the popularity grader to every in-process shard.
func (c *Cluster) SetGrader(g popularity.Grader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.grades = g
	for _, srv := range c.servers() {
		srv.SetGrader(g)
	}
}

// ExpireSessions runs session expiry on every in-process shard and
// returns the total expired.
func (c *Cluster) ExpireSessions() int {
	total := 0
	for _, srv := range c.servers() {
		total += srv.ExpireSessions()
	}
	return total
}

// Stats aggregates the in-process shards' counter snapshots.
func (c *Cluster) Stats() server.Stats {
	var st server.Stats
	for _, srv := range c.servers() {
		st = st.Add(srv.Stats())
	}
	return st
}

// QualityTotal aggregates the in-process shards' cumulative live
// quality.
func (c *Cluster) QualityTotal() quality.Snapshot {
	var s quality.Snapshot
	for _, srv := range c.servers() {
		s = s.Add(srv.QualityTotal())
	}
	return s
}

// QualityWindow aggregates the in-process shards' rolling-window
// quality.
func (c *Cluster) QualityWindow(span time.Duration) quality.Snapshot {
	var s quality.Snapshot
	for _, srv := range c.servers() {
		s = s.Add(srv.QualityWindow(span))
	}
	return s
}

// BindSLIs wires cluster-aggregate SLIs into an SLO engine: the same
// three signals server.BindSLIs provides, summed across the in-process
// shards.
func (c *Cluster) BindSLIs(e *obs.SLOEngine) {
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		var good, total int64
		for _, srv := range c.servers() {
			g, t := srv.DemandLatencyGoodTotal(span, threshold)
			good += g
			total += t
		}
		return float64(good), float64(total)
	})
	e.Bind("precision", func(_, span time.Duration) (float64, float64) {
		snap := c.QualityWindow(span)
		return float64(snap.PrefetchHits), float64(snap.PrefetchedDocs)
	})
	e.Bind("hit_ratio", func(_, span time.Duration) (float64, float64) {
		snap := c.QualityWindow(span)
		return float64(snap.CacheHits + snap.PrefetchHits), float64(snap.Requests)
	})
}
