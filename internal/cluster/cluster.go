// Package cluster is the horizontal-scaling tier over internal/server:
// a thin router that consistent-hashes each request's client identity
// onto one of N shard instances, so per-client session state — the
// only mutable serving state the paper's model needs — stays local to
// one shard while every shard serves the same published model.
//
// The split follows from the serving architecture. A published model
// snapshot is immutable (PR-6 froze it into a single relocatable arena
// []byte), so replication is "ship the arena bytes, swap the pointer":
// SetPredictor hands every shard the same frozen snapshot and each
// shard swaps its own atomic pointer — no shard-local training, no
// coordination. Everything per-client (session contexts, outstanding
// hint records, hit reports) is keyed by the identity the router
// hashes on, so routing by that identity makes each client's
// serving history whole on exactly one shard: hints are issued and
// scored where the client's context lives, and client hit reports
// (X-Prefetch-Report) land on the shard that issued the hints. That is
// also why an N-shard cluster reproduces the single node's hint
// accounting exactly (see the equivalence test).
//
// Identity is resolved once, at the router: the router applies its own
// trust policy to the incoming hop, then stamps the resolved identity
// on the forwarded request. Shards are constructed trusting only the
// router's forwarding identity (RouterPeer), so a client cannot smuggle
// a forged X-Client-ID past the router to poison another client's
// session (see server.IdentityPolicy).
//
// Membership changes swap an immutable hash ring. The rebalance cost —
// open sessions whose owner arc moved, and the outstanding hints those
// sessions strand on the old owner — is measured and returned as a
// RebalanceReport and counted in pbppm_cluster_sessions_remapped_total
// and pbppm_cluster_hints_orphaned_total. A leaving shard's sessions
// are flushed through OnSessionEnd first, so its in-progress training
// data survives the departure.
package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
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

// RouterPeer is the sentinel host the router writes into the forwarded
// request's RemoteAddr on the in-process hop; shards trust exactly this
// peer to assert client identity.
const RouterPeer = "pbppm-router"

// routerRemoteAddr is RouterPeer in RemoteAddr form (host:port, so
// net.SplitHostPort parses it like a real peer address).
const routerRemoteAddr = RouterPeer + ":0"

// Config parameterizes an in-process cluster.
type Config struct {
	// Shards is the initial shard count; it must be at least 1.
	Shards int
	// Replicas is the virtual-node count per shard on the hash ring;
	// zero selects the package default (128).
	Replicas int
	// Store serves documents on every shard; required.
	Store server.ContentStore
	// ShardConfig is the base server configuration cloned per shard.
	// Two fields are overridden: Obs (each shard gets its own registry,
	// so per-shard expositions stay well-formed instead of merging
	// identically-named series) and TrustedPeers (shards trust only the
	// router hop). Callback fields (OnSessionEnd, OnHintEvent) are
	// shared across shards and must be safe for concurrent use.
	ShardConfig server.Config
	// Obs registers the router's metrics: per-shard request counters,
	// the shard-count gauge, and the rebalance cost counters. Nil keeps
	// them process-internal.
	Obs *obs.Registry
	// TrustedPeers is the router's own ingress trust policy — peers
	// allowed to assert X-Client-ID on requests entering the router
	// (e.g. an outer load balancer). Empty trusts any peer, the right
	// default when cooperating clients connect straight to the router.
	TrustedPeers []string
}

// routerMetrics are the routing tier's own counters; per-shard request
// counters live on the shard nodes.
type routerMetrics struct {
	shards           *obs.Gauge
	rebalanceJoins   *obs.Counter
	rebalanceLeaves  *obs.Counter
	sessionsRemapped *obs.Counter
	hintsOrphaned    *obs.Counter
	noShard          *obs.Counter
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
		noShard: reg.Counter("pbppm_cluster_routing_errors_total", routingErrHelp,
			obs.Label{Name: "reason", Value: "no_shard"}),
	}
}

// routingErrHelp documents pbppm_cluster_routing_errors_total, shared
// by the in-process Cluster and the standalone Router so both register
// the family with identical metadata.
const routingErrHelp = "Requests the routing tier could not deliver to a shard, by reason: " +
	"no_shard (empty ring) or backend (reverse-proxy round trip to the owner failed)."

// shardNode is one in-process shard: its server, its private metrics
// registry, and the router-side request counter labelled with its ID.
type shardNode struct {
	id       int
	srv      *server.Server
	reg      *obs.Registry
	requests *obs.Counter
}

// predCell / gradeCell box interfaces behind atomic pointers so new
// shards can catch up on the latest publication without locks.
type predCell struct{ p markov.Predictor }
type gradeCell struct{ g popularity.Grader }

// Cluster routes requests to in-process shards by consistent hash over
// client identity. It implements http.Handler; everything behind it is
// the same server.Server the single-node deployment runs.
type Cluster struct {
	cfg      Config
	identity server.IdentityPolicy
	metrics  *routerMetrics

	pred   atomic.Pointer[predCell]
	grader atomic.Pointer[gradeCell]

	mu     sync.RWMutex
	ring   *ring
	shards map[int]*shardNode
	nextID int
}

// New builds a cluster with cfg.Shards shard instances on the ring.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: nil content store")
	}
	c := &Cluster{
		cfg:      cfg,
		identity: server.NewIdentityPolicy(cfg.TrustedPeers),
		metrics:  newRouterMetrics(cfg.Obs),
		shards:   make(map[int]*shardNode),
	}
	if p := cfg.ShardConfig.Predictor; p != nil {
		c.pred.Store(&predCell{p: markov.Freeze(p)})
	}
	if g := cfg.ShardConfig.Grades; g != nil {
		c.grader.Store(&gradeCell{g: g})
	}
	ids := make([]int, 0, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		id := c.nextID
		c.nextID++
		c.shards[id] = c.newShard(id)
		ids = append(ids, id)
	}
	c.ring = newRing(ids, cfg.Replicas)
	c.metrics.shards.Set(int64(len(ids)))
	return c, nil
}

// newShard constructs one shard server from the base config: a private
// registry, trust pinned to the router hop, and the latest published
// model and grader.
func (c *Cluster) newShard(id int) *shardNode {
	reg := obs.NewRegistry()
	sc := c.cfg.ShardConfig
	sc.Obs = reg
	sc.TrustedPeers = []string{RouterPeer}
	if cell := c.pred.Load(); cell != nil {
		sc.Predictor = cell.p
	}
	if cell := c.grader.Load(); cell != nil {
		sc.Grades = cell.g
	}
	return &shardNode{
		id:  id,
		srv: server.New(c.cfg.Store, sc),
		reg: reg,
		requests: c.cfg.Obs.Counter("pbppm_shard_requests_total",
			"Requests routed to each shard by the consistent-hash ring.",
			obs.Label{Name: "shard", Value: strconv.Itoa(id)}),
	}
}

// ServeHTTP resolves the client identity under the router's trust
// policy, picks the owning shard off the ring, and forwards with the
// identity stamped on the trusted hop. The hot path takes one RLock
// around the ring/shard lookup; rebalances swap the ring wholesale.
func (c *Cluster) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := c.identity.ClientOf(r)
	c.mu.RLock()
	id, ok := c.ring.owner(client)
	var sh *shardNode
	if ok {
		sh = c.shards[id]
	}
	c.mu.RUnlock()
	if sh == nil {
		c.metrics.noShard.Inc()
		http.Error(w, "cluster: no shards on the ring", http.StatusServiceUnavailable)
		return
	}
	fwd := r.Clone(r.Context())
	fwd.Header.Set(server.HeaderClientID, client)
	fwd.RemoteAddr = routerRemoteAddr
	sh.requests.Inc()
	sh.srv.ServeHTTP(w, fwd)
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

// AddShard adds one shard to the ring and returns its ID plus the
// rebalance cost: every open session on an existing shard whose arc
// moved to the newcomer is remapped, stranding its outstanding hints.
func (c *Cluster) AddShard() (int, RebalanceReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID
	c.nextID++
	node := c.newShard(id)

	ids := c.shardIDsLocked()
	ids = append(ids, id)
	next := newRing(ids, c.cfg.Replicas)

	rep := RebalanceReport{Kind: "join", Shard: id, ShardsAfter: len(ids)}
	for _, sh := range c.shards {
		for _, os := range sh.srv.OpenSessions() {
			if owner, ok := next.owner(os.Client); ok && owner != sh.id {
				rep.SessionsRemapped++
				rep.HintsOrphaned += os.Hints
			}
		}
	}

	c.shards[id] = node
	c.ring = next
	c.metrics.shards.Set(int64(len(ids)))
	c.metrics.rebalanceJoins.Inc()
	c.metrics.sessionsRemapped.Add(int64(rep.SessionsRemapped))
	c.metrics.hintsOrphaned.Add(int64(rep.HintsOrphaned))
	return id, rep
}

// RemoveShard takes one shard off the ring. Every session open on it is
// remapped by definition; the departing shard is flushed through
// OnSessionEnd afterwards so its in-progress sessions still reach the
// training window. Removing the last shard is refused — a router with
// an empty ring can only 503.
func (c *Cluster) RemoveShard(id int) (RebalanceReport, error) {
	c.mu.Lock()
	node, ok := c.shards[id]
	if !ok {
		c.mu.Unlock()
		return RebalanceReport{}, fmt.Errorf("cluster: no shard %d", id)
	}
	if len(c.shards) == 1 {
		c.mu.Unlock()
		return RebalanceReport{}, fmt.Errorf("cluster: refusing to remove the last shard")
	}
	delete(c.shards, id)
	ids := c.shardIDsLocked()
	c.ring = newRing(ids, c.cfg.Replicas)

	rep := RebalanceReport{Kind: "leave", Shard: id, ShardsAfter: len(ids)}
	for _, os := range node.srv.OpenSessions() {
		rep.SessionsRemapped++
		rep.HintsOrphaned += os.Hints
	}
	c.metrics.shards.Set(int64(len(ids)))
	c.metrics.rebalanceLeaves.Inc()
	c.metrics.sessionsRemapped.Add(int64(rep.SessionsRemapped))
	c.metrics.hintsOrphaned.Add(int64(rep.HintsOrphaned))
	c.mu.Unlock()

	// Outside the cluster lock: delivery runs OnSessionEnd callbacks.
	node.srv.FlushSessions()
	return rep, nil
}

// shardIDsLocked returns the current shard IDs sorted; caller holds mu.
func (c *Cluster) shardIDsLocked() []int {
	ids := make([]int, 0, len(c.shards))
	for id := range c.shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// ShardIDs returns the IDs currently on the ring, sorted.
func (c *Cluster) ShardIDs() []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.shardIDsLocked()
}

// Shard returns the shard server by ID, or nil.
func (c *Cluster) Shard(id int) *server.Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if sh := c.shards[id]; sh != nil {
		return sh.srv
	}
	return nil
}

// ShardRegistry returns a shard's private metrics registry, or nil —
// each shard's exposition is served separately (the admin mux mounts
// them under /debug/shard/<id>/metrics).
func (c *Cluster) ShardRegistry(id int) *obs.Registry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if sh := c.shards[id]; sh != nil {
		return sh.reg
	}
	return nil
}

// Owner reports which shard the ring assigns a client identity to.
func (c *Cluster) Owner(client string) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ring.owner(client)
}

// SetPredictor replicates a published model snapshot to every shard.
// A trainable model is frozen once, before the fan-out (markov.Freeze),
// so every shard serves the same immutable snapshot (for frozen models,
// one relocatable arena []byte) and in-process replication is the
// pointer swap each shard's SetPredictor performs; shards joining later
// catch up from the cell.
func (c *Cluster) SetPredictor(p markov.Predictor) {
	p = markov.Freeze(p)
	c.pred.Store(&predCell{p: p})
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sh := range c.shards {
		sh.srv.SetPredictor(p)
	}
}

// SetGrader replicates the popularity grader to every shard.
func (c *Cluster) SetGrader(g popularity.Grader) {
	c.grader.Store(&gradeCell{g: g})
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sh := range c.shards {
		sh.srv.SetGrader(g)
	}
}

// ExpireSessions runs session expiry on every shard and returns the
// total expired.
func (c *Cluster) ExpireSessions() int {
	total := 0
	for _, sh := range c.nodes() {
		total += sh.srv.ExpireSessions()
	}
	return total
}

// nodes snapshots the shard set for iteration outside the lock.
func (c *Cluster) nodes() []*shardNode {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*shardNode, 0, len(c.shards))
	for _, id := range c.shardIDsLocked() {
		out = append(out, c.shards[id])
	}
	return out
}

// Stats aggregates shard counter snapshots.
func (c *Cluster) Stats() server.Stats {
	var st server.Stats
	for _, sh := range c.nodes() {
		st = st.Add(sh.srv.Stats())
	}
	return st
}

// QualityTotal aggregates the shards' cumulative live quality.
func (c *Cluster) QualityTotal() quality.Snapshot {
	var s quality.Snapshot
	for _, sh := range c.nodes() {
		s = s.Add(sh.srv.QualityTotal())
	}
	return s
}

// QualityWindow aggregates the shards' rolling-window quality.
func (c *Cluster) QualityWindow(span time.Duration) quality.Snapshot {
	var s quality.Snapshot
	for _, sh := range c.nodes() {
		s = s.Add(sh.srv.QualityWindow(span))
	}
	return s
}

// BindSLIs wires cluster-aggregate SLIs into an SLO engine: the same
// three signals server.BindSLIs provides, summed across shards.
func (c *Cluster) BindSLIs(e *obs.SLOEngine) {
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		var good, total int64
		for _, sh := range c.nodes() {
			g, t := sh.srv.DemandLatencyGoodTotal(span, threshold)
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

// Router is the standalone routing tier for shards running as separate
// processes: it consistent-hashes client identity over a static set of
// HTTP backends (prefetchd instances booted with -router-addr pointing
// back at this router's host so they trust its identity stamp) and
// reverse-proxies each request to the owner. Membership is fixed at
// construction; the in-process Cluster is the dynamic variant.
type Router struct {
	identity    server.IdentityPolicy
	ring        *ring
	backends    map[int]http.Handler
	requests    map[int]*obs.Counter
	backendErrs map[int]*obs.Counter
	noShard     *obs.Counter
	backendErr  *obs.Counter
	log         *slog.Logger
}

// RouterConfig parameterizes a standalone HTTP router.
type RouterConfig struct {
	// Backends are the shard base URLs, e.g. "http://10.0.0.11:8080";
	// at least one is required. Backend i gets shard ID i on the ring.
	Backends []string
	// Replicas is the virtual-node count per backend; zero selects the
	// package default.
	Replicas int
	// TrustedPeers is the router's ingress identity trust (see
	// Config.TrustedPeers).
	TrustedPeers []string
	// Obs registers pbppm_shard_requests_total{shard} for the router;
	// nil keeps it process-internal.
	Obs *obs.Registry
	// Logger receives backend-failure lines, tagged component=router;
	// nil discards them.
	Logger *slog.Logger
}

// NewRouter builds a standalone HTTP router over fixed backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	rt := &Router{
		identity:    server.NewIdentityPolicy(cfg.TrustedPeers),
		backends:    make(map[int]http.Handler, len(cfg.Backends)),
		requests:    make(map[int]*obs.Counter, len(cfg.Backends)),
		backendErrs: make(map[int]*obs.Counter, len(cfg.Backends)),
		noShard: cfg.Obs.Counter("pbppm_cluster_routing_errors_total", routingErrHelp,
			obs.Label{Name: "reason", Value: "no_shard"}),
		backendErr: cfg.Obs.Counter("pbppm_cluster_routing_errors_total", routingErrHelp,
			obs.Label{Name: "reason", Value: "backend"}),
		log: obs.Component(cfg.Logger, "router"),
	}
	ids := make([]int, 0, len(cfg.Backends))
	for i, b := range cfg.Backends {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad backend URL %q", b)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		// The default ErrorHandler logs to the process-global logger and
		// writes a bare 502 with no body or accounting. A dead shard is
		// an operational event the routing tier must surface: count it
		// per shard, log it with the backend address, and answer a
		// well-formed 502 the client can distinguish from the shard's
		// own errors.
		shard, host := i, u.Host
		proxy.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
			rt.backendErr.Inc()
			rt.backendErrs[shard].Inc()
			rt.log.Warn("backend round trip failed",
				"shard", shard, "backend", host, "path", r.URL.Path, "error", err)
			http.Error(w, fmt.Sprintf("cluster: shard %d backend unavailable", shard),
				http.StatusBadGateway)
		}
		rt.backends[i] = proxy
		rt.requests[i] = cfg.Obs.Counter("pbppm_shard_requests_total",
			"Requests routed to each shard by the consistent-hash ring.",
			obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		rt.backendErrs[i] = cfg.Obs.Counter("pbppm_cluster_backend_errors_total",
			"Reverse-proxy round trips that failed per shard backend (connection refused, reset, timeout); each also answered 502 and counted under routing_errors{reason=\"backend\"}.",
			obs.Label{Name: "shard", Value: strconv.Itoa(i)})
		ids = append(ids, i)
	}
	rt.ring = newRing(ids, cfg.Replicas)
	return rt, nil
}

// ServeHTTP resolves identity, stamps it, and proxies to the owner.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	client := rt.identity.ClientOf(r)
	id, ok := rt.ring.owner(client)
	if !ok {
		rt.noShard.Inc()
		http.Error(w, "cluster: no shards on the ring", http.StatusServiceUnavailable)
		return
	}
	r.Header.Set(server.HeaderClientID, client)
	rt.requests[id].Inc()
	rt.backends[id].ServeHTTP(w, r)
}
