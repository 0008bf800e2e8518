// Package server implements a deployable HTTP prefetching server — the
// system the paper's simulator models. The server holds a prediction
// model (any markov.Predictor: PB-PPM, standard PPM, LRS, Top-10),
// tracks per-client access sessions with the paper's 30-minute idle
// rule, and attaches prefetch hints to every response it serves. It
// grades hinted URLs with the popularity ranking the maintainer derives
// from its training window (SetGrader).
//
// HTTP/1.x cannot push unsolicited bodies, so the server uses the
// hint-based protocol of the literature the paper builds on (Cohen et
// al., Kroeger/Long/Mogul): each response carries an X-Prefetch header
// listing predicted URLs with probabilities, and a cooperating client
// (see Client) fetches them into its cache, tagging those fetches with
// X-Prefetch-Fetch so the server can keep demand statistics clean.
//
// # Concurrency
//
// The serving hot path is lock-free: the prediction model is published
// as an immutable snapshot through an atomic pointer (swapped whole by
// SetPredictor), Predict on a published model performs no writes (the
// server installs a trained model as its frozen snapshot), counters are
// atomics, and per-client session contexts live in a sharded map so
// concurrent clients never contend on one mutex. ServeHTTP never holds
// any global lock across Predict or ContentStore.Lookup.
package server

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/session"
)

// Header names of the hint protocol. Every name is in canonical form
// (http.CanonicalHeaderKey returns it unchanged), so the server and the
// client read and write these headers by direct map index — net/http
// canonicalizes the keys of every request and response it parses, in
// whatever case they arrived — and no Get or Set has to allocate a
// canonical copy of the key.
const (
	// HeaderClientID identifies the end client (proxies forward it);
	// absent, the remote address is used. On the wire it is the same
	// header as "X-Client-ID": header names are case-insensitive.
	HeaderClientID = "X-Client-Id"
	// HeaderPrefetch carries the hint list:
	// "url;p=0.62, url2;p=0.31".
	HeaderPrefetch = "X-Prefetch"
	// HeaderPrefetchFetch marks a request as a hint-driven prefetch so
	// it is excluded from demand statistics and prediction contexts.
	HeaderPrefetchFetch = "X-Prefetch-Fetch"
)

// maxHintBytes is the paper's 30 KB size threshold for PB-PPM: the
// server hints no larger document, and a Client caches no larger
// prefetch.
const maxHintBytes = 30 * 1024

// Document is one servable resource. Body is read-only: a store may
// share one backing array among many documents, and the server writes
// it to every response without copying it.
type Document struct {
	URL         string
	Body        []byte
	ContentType string
}

// ContentStore resolves URLs to documents. Lookup is called
// concurrently from request goroutines without any server lock held, so
// implementations must be safe for concurrent reads.
type ContentStore interface {
	// Lookup returns the document for url; ok reports whether it exists.
	Lookup(url string) (doc Document, ok bool)
}

// MapStore is a ContentStore backed by a map. The zero value is empty.
// Like any Go map it is safe for concurrent reads once populated.
type MapStore map[string]Document

// Lookup implements ContentStore.
func (m MapStore) Lookup(url string) (Document, bool) {
	d, ok := m[url]
	return d, ok
}

// Config parameterizes the server.
type Config struct {
	// Predictor serves prefetch hints; nil disables hinting until
	// SetPredictor is called. It is installed through SetPredictor, so
	// a trainable model is served as its frozen snapshot.
	Predictor markov.Predictor
	// MaxHints caps the hint list per response; zero selects 4.
	MaxHints int
	// SessionIdle splits per-client contexts; zero selects the paper's
	// 30 minutes.
	SessionIdle time.Duration
	// Clock supplies time for session bookkeeping; nil selects
	// time.Now. Tests inject a fake clock.
	Clock func() time.Time
	// OnSessionEnd, if set, receives each completed access session (a
	// client context closed by the idle rule or by ExpireSessions).
	// The maintenance loop uses it to feed its sliding window. It is
	// called without any server lock held and must not block for long.
	OnSessionEnd func(client string, urls []string, last time.Time)
	// Obs registers the server's runtime metrics (request and latency
	// counters, hint precision counters) for /metrics exposition. Nil
	// keeps the same counters process-internal: Stats still works and
	// the hot path is identical either way.
	Obs *obs.Registry
	// Tracer samples per-stage predict-path timings (session lookup →
	// context assembly → Predict → hint filtering). Nil disables
	// tracing entirely; a tracer with sampling off costs one field read
	// per demand request.
	Tracer *obs.Tracer
	// LiveWindow is the rolling span behind the pbppm_live_* gauges
	// (precision, hit ratio, traffic increase, latency quantiles); zero
	// selects 5 minutes. The backing rings always cover at least an
	// hour so SLO burn rates have a long window to read.
	LiveWindow time.Duration
	// OnHintEvent, if set, receives every hint-lifecycle transition
	// (issued → fetched → hit | wasted). It is called without any
	// server lock held and must be cheap; events are counted in
	// pbppm_hint_events_total regardless.
	OnHintEvent func(HintEvent)
	// Grades grades hint-event URLs by popularity; nil grades
	// everything 0 until SetGrader publishes a ranking.
	Grades popularity.Grader
	// TrustedPeers lists the peer hosts (the host part of
	// http.Request.RemoteAddr) allowed to assert client identity through
	// the X-Client-ID header — typically a cluster router in another
	// process, which resolves the identity once on ingress and stamps it
	// on the forwarded hop. Empty keeps the legacy behavior of honoring the
	// header from any peer (direct cooperating clients set it
	// themselves); non-empty makes the header spoof-proof: a request
	// from an unlisted peer falls back to its remote host as identity,
	// so a forged header can no longer poison another client's session
	// context.
	TrustedPeers []string
}

func (c Config) maxHints() int {
	if c.MaxHints <= 0 {
		return 4
	}
	return c.MaxHints
}

func (c Config) idle() time.Duration {
	if c.SessionIdle <= 0 {
		return session.DefaultIdleTimeout
	}
	return c.SessionIdle
}

func (c Config) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

func (c Config) liveWindow() time.Duration {
	if c.LiveWindow <= 0 {
		return 5 * time.Minute
	}
	return c.LiveWindow
}

// Stats is a snapshot of server counters.
type Stats struct {
	DemandRequests   int64
	PrefetchRequests int64
	NotFound         int64
	HintsIssued      int64
	SessionsStarted  int64
	SessionsExpired  int64
	// HintFetches counts prefetch requests for URLs this server hinted
	// to the same client — the cooperating client acting on hints.
	HintFetches int64
	// HintHits counts demand requests for URLs previously hinted to the
	// same client in its open session: predictions the user confirmed
	// by navigating there. HintHits over HintsIssued is the live lower
	// bound on prefetch precision (§4 of the paper); demand clicks a
	// client served from its own prefetch cache never reach the server
	// and are not counted.
	HintHits int64
	// HintReportsUnmatched counts client prefetch-hit reports that found
	// no outstanding hint record on this server — evicted hints, ended
	// sessions, or reports landing on a shard that never issued the hint
	// after a cluster rebalance.
	HintReportsUnmatched int64
}

// Add returns element-wise sums, so a cluster can aggregate its
// shards' snapshots into one Stats.
func (a Stats) Add(b Stats) Stats {
	a.DemandRequests += b.DemandRequests
	a.PrefetchRequests += b.PrefetchRequests
	a.NotFound += b.NotFound
	a.HintsIssued += b.HintsIssued
	a.SessionsStarted += b.SessionsStarted
	a.SessionsExpired += b.SessionsExpired
	a.HintFetches += b.HintFetches
	a.HintHits += b.HintHits
	a.HintReportsUnmatched += b.HintReportsUnmatched
	return a
}

// serverMetrics holds the live counters behind Stats, registered for
// /metrics exposition when Config.Obs is set. Every update is a single
// atomic operation; with a nil registry the metrics exist unregistered,
// so the serving path never branches on observability.
type serverMetrics struct {
	demandRequests   *obs.Counter
	prefetchRequests *obs.Counter
	notFound         *obs.Counter
	demandBytes      *obs.Counter
	prefetchBytes    *obs.Counter
	hintsIssued      *obs.Counter
	hintFetches      *obs.Counter
	hintHits         *obs.Counter
	reportsUnmatched *obs.Counter
	sessionsStarted  *obs.Counter
	sessionsExpired  *obs.Counter
	demandLatency    *obs.Histogram
	prefetchLatency  *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	kind := func(v string) obs.Label { return obs.Label{Name: "kind", Value: v} }
	return &serverMetrics{
		demandRequests: reg.Counter("pbppm_http_requests_total",
			"Requests served, split into demand navigation and hint-driven prefetches.",
			kind("demand")),
		prefetchRequests: reg.Counter("pbppm_http_requests_total",
			"Requests served, split into demand navigation and hint-driven prefetches.",
			kind("prefetch")),
		notFound: reg.Counter("pbppm_http_not_found_total",
			"Requests for URLs absent from the content store."),
		demandBytes: reg.Counter("pbppm_http_response_bytes_total",
			"Body bytes served; the prefetch/demand ratio is the live traffic-increase metric.",
			kind("demand")),
		prefetchBytes: reg.Counter("pbppm_http_response_bytes_total",
			"Body bytes served; the prefetch/demand ratio is the live traffic-increase metric.",
			kind("prefetch")),
		hintsIssued: reg.Counter("pbppm_hints_issued_total",
			"Prefetch hints attached to responses."),
		hintFetches: reg.Counter("pbppm_hint_fetches_total",
			"Hinted URLs fetched by cooperating clients (X-Prefetch-Fetch)."),
		hintHits: reg.Counter("pbppm_hint_hits_total",
			"Demand requests for URLs previously hinted to the same client."),
		reportsUnmatched: reg.Counter("pbppm_hint_reports_unmatched_total",
			"Client prefetch-hit reports that matched no outstanding hint record — the hint was evicted, its session ended, or (in a cluster) a rebalance moved the client to a shard that never issued it."),
		sessionsStarted: reg.Counter("pbppm_sessions_started_total",
			"Client access sessions opened."),
		sessionsExpired: reg.Counter("pbppm_sessions_expired_total",
			"Client access sessions closed by the idle rule."),
		demandLatency: reg.Histogram("pbppm_http_request_seconds",
			"Request handling latency by request kind.", nil, kind("demand")),
		prefetchLatency: reg.Histogram("pbppm_http_request_seconds",
			"Request handling latency by request kind.", nil, kind("prefetch")),
	}
}

// contextShards is the number of session-context shards. 64 keeps
// contention negligible at any realistic GOMAXPROCS while costing only
// a few kilobytes.
const contextShards = 64

// predictContextTail caps how many trailing session URLs a prediction
// considers: the tail handed to Predict, or the order cap of a
// streaming match. The paper's models match at most their maximum
// branch height (7), and >95% of sessions have at most 9 clicks (§2.2),
// so 16 loses nothing while bounding per-request work for clients that
// never go idle.
const predictContextTail = 16

// contextShard is one slice of the per-client session map with its own
// lock, so concurrent clients hash to different locks.
type contextShard struct {
	mu       sync.Mutex
	contexts map[string]*clientContext
	// ending tracks in-flight OnSessionEnd deliveries by client: the
	// channel closes when the ended session's callbacks have run. A
	// session that ends while its client's previous end is still listed
	// here waits for that delivery first, so per-client session ends
	// reach OnSessionEnd in session order even when expiry and a new
	// request race (see endSession).
	ending map[string]chan struct{}
}

// predictorCell boxes the published model so an interface value can sit
// behind an atomic.Pointer. stream is the model's streaming interface,
// nil when it has none; gen numbers the publish, so a session can tell
// whether its stored match state belongs to this model; score is the
// model's live scorer, which the hint records it issues carry.
type predictorCell struct {
	p      markov.Predictor
	stream streamPredictor
	gen    uint32
	score  *modelScore
}

// streamPredictor is implemented by the frozen model every tree model
// installs as (markov.FrozenTree), which follows a session's context
// one URL at a time. Step advances a match state by one URL;
// PredictFrom predicts from a state and the session's current URL. Both
// consider only the trailing maxOrder URLs, and stepping a context from
// state 0 then predicting equals PredictInto on its last maxOrder URLs.
// Other models (Top-N's snapshot, wrappers) take the context-tail path.
type streamPredictor interface {
	Step(node uint32, url string, maxOrder int) uint32
	PredictFrom(node uint32, last string, maxOrder int, buf []markov.Prediction) []markov.Prediction
}

// Server is an http.Handler serving a ContentStore with prefetch hints.
type Server struct {
	store ContentStore
	cfg   Config

	// pred is the published prediction model, swapped whole and never
	// mutated in place: the serving read path loads it without locks.
	pred atomic.Pointer[predictorCell]
	// gens numbers publishes (see predictorCell.gen).
	gens atomic.Uint32

	shards [contextShards]contextShard

	metrics  *serverMetrics
	tracer   *obs.Tracer
	live     *liveScore
	identity IdentityPolicy

	// epoch anchors the int64 stamps session contexts and hint records
	// keep (see now): the clock's reading when the server was built.
	epoch time.Time
}

// hintMemory caps how many outstanding hinted URLs are remembered per
// client context for the hint-hit counters; oldest hints are dropped
// first. 32 covers many responses' worth of hints at the default of 4
// per response; servers configured with larger hint lists get twice
// one response's worth (see Server.hintCap).
const hintMemory = 32

// hintCap bounds a context's outstanding hint records.
func (s *Server) hintCap() int {
	if c := 2 * s.cfg.maxHints(); c > hintMemory {
		return c
	}
	return hintMemory
}

// hintRecord is one outstanding hint issued to a client: enough state
// to emit lifecycle events and score a later hit against the model
// that made the prediction. model is that model's scorer, nil for a
// record synthesized for an unmatched report (scored against the
// current model); issued is a server stamp (see Server.now).
type hintRecord struct {
	url     string
	prob    float64
	model   *modelScore
	issued  int64
	fetched bool
}

// clientContext is one client's open access session, guarded by its
// shard's lock. urls holds the store's own URL strings (see
// ServeHTTP); last is the server stamp of the latest demand request.
type clientContext struct {
	urls []string
	last int64
	// hinted holds recently issued, not-yet-confirmed hint records for
	// this client, consumed when a demand request or client report for
	// one arrives.
	hinted []hintRecord
	// node is the session's match state in the streaming model published
	// as generation gen (see streamPredictor); a session whose gen is
	// not the current model's rebuilds node from its URL tail once. A
	// number rather than a model pointer, so an idle session pins no
	// retired model.
	gen  uint32
	node uint32
}

// hintedIndex returns the position of url in ctx.hinted, or -1.
func (ctx *clientContext) hintedIndex(url string) int {
	for i := range ctx.hinted {
		if ctx.hinted[i].url == url {
			return i
		}
	}
	return -1
}

// recordHinted remembers the hints model issued at stamp issued,
// bounded by cap; re-hinted URLs refresh in place (keeping their
// fetched state). It appends the records dropped over the cap to
// dropped and returns it, so the caller can emit Wasted events for any
// that were already fetched once it has released the shard lock.
func (ctx *clientContext) recordHinted(hints []markov.Prediction, model *modelScore, issued int64, cap int, dropped []hintRecord) []hintRecord {
	for _, h := range hints {
		if i := ctx.hintedIndex(h.URL); i >= 0 {
			r := &ctx.hinted[i]
			r.prob, r.model, r.issued = h.Probability, model, issued
			continue
		}
		ctx.hinted = append(ctx.hinted, hintRecord{url: h.URL, prob: h.Probability, model: model, issued: issued})
	}
	if over := len(ctx.hinted) - cap; over > 0 {
		dropped = append(dropped, ctx.hinted[:over]...)
		ctx.hinted = append(ctx.hinted[:0], ctx.hinted[over:]...)
	}
	return dropped
}

// New returns a server over store. It panics on a nil store: a server
// without content is a programmer error.
func New(store ContentStore, cfg Config) *Server {
	if store == nil {
		panic("server: nil content store")
	}
	s := &Server{
		store:    store,
		cfg:      cfg,
		metrics:  newServerMetrics(cfg.Obs),
		tracer:   cfg.Tracer,
		identity: NewIdentityPolicy(cfg.TrustedPeers),
		epoch:    cfg.now(),
	}
	// The live-scoring rings cover at least an hour (the SLO engine's
	// long burn-rate window) at a granularity sized for the live span.
	ringSpan := cfg.liveWindow()
	if ringSpan < time.Hour {
		ringSpan = time.Hour
	}
	s.live = newLiveScore(cfg.Obs, obs.Window{
		Span:        ringSpan,
		Granularity: cfg.liveWindow() / 30,
		Clock:       cfg.Clock,
	}, cfg.liveWindow(), cfg.OnHintEvent)
	if cfg.Grades != nil {
		s.live.setGrader(cfg.Grades)
	}
	for i := range s.shards {
		s.shards[i].contexts = make(map[string]*clientContext)
		s.shards[i].ending = make(map[string]chan struct{})
	}
	if cfg.Predictor != nil {
		s.SetPredictor(cfg.Predictor)
	}
	return s
}

// SetPredictor atomically publishes a new prediction model; the
// maintenance loop calls this after a periodic rebuild. In-flight
// requests keep using the snapshot they loaded. The server installs
// markov.Freeze(p): a trainable model is served as its frozen snapshot,
// so predictions on it are read-only and training p afterwards changes
// nothing served until p is installed again.
func (s *Server) SetPredictor(p markov.Predictor) {
	p = markov.Freeze(p)
	stream, _ := p.(streamPredictor)
	score := s.live.setModel(p.Name())
	s.pred.Store(&predictorCell{p: p, stream: stream, gen: s.gens.Add(1), score: score})
}

// Predictor returns the installed model — the snapshot SetPredictor
// published — or nil before the first install.
func (s *Server) Predictor() markov.Predictor {
	if cell := s.pred.Load(); cell != nil {
		return cell.p
	}
	return nil
}

// stamp converts a clock reading to the stamp contexts and hint records
// keep: the int64 nanoseconds since the server's epoch. A stamp is a
// third of a time.Time, and the difference of two stamps equals Sub
// between their readings, monotonic clock included.
func (s *Server) stamp(t time.Time) int64 { return int64(t.Sub(s.epoch)) }

// now reads the clock as a stamp.
func (s *Server) now() int64 { return s.stamp(s.cfg.now()) }

// timeAt converts a stamp back to the clock reading it came from.
func (s *Server) timeAt(stamp int64) time.Time { return s.epoch.Add(time.Duration(stamp)) }

// fnv1a is the 32-bit FNV-1a hash used to pick shards.
func fnv1a(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// shard returns the context shard for a client.
func (s *Server) shard(client string) *contextShard {
	return &s.shards[fnv1a(client)%contextShards]
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		DemandRequests:       s.metrics.demandRequests.Value(),
		PrefetchRequests:     s.metrics.prefetchRequests.Value(),
		NotFound:             s.metrics.notFound.Value(),
		HintsIssued:          s.metrics.hintsIssued.Value(),
		SessionsStarted:      s.metrics.sessionsStarted.Value(),
		SessionsExpired:      s.metrics.sessionsExpired.Value(),
		HintFetches:          s.metrics.hintFetches.Value(),
		HintHits:             s.metrics.hintHits.Value(),
		HintReportsUnmatched: s.metrics.reportsUnmatched.Value(),
	}
}

// IdentityPolicy resolves the client identity of a request and decides
// which peers may assert it through the X-Client-ID header. The zero
// value (and NewIdentityPolicy(nil)) trusts the header from any peer —
// the legacy single-server behavior, where cooperating clients speak
// directly to the server. A policy with trusted peers honors the
// header only from those hosts (the cluster router stamps it on the
// forwarded hop) and treats everyone else by remote host, so a forged
// header cannot impersonate another client.
type IdentityPolicy struct {
	trusted map[string]bool
}

// NewIdentityPolicy builds a policy trusting the given peer hosts;
// empty input trusts every peer.
func NewIdentityPolicy(trustedPeers []string) IdentityPolicy {
	if len(trustedPeers) == 0 {
		return IdentityPolicy{}
	}
	m := make(map[string]bool, len(trustedPeers))
	for _, p := range trustedPeers {
		if p != "" {
			m[p] = true
		}
	}
	return IdentityPolicy{trusted: m}
}

// ClientOf resolves the request's client identity under the policy.
func (ip IdentityPolicy) ClientOf(r *http.Request) string {
	if id := headerValue(r.Header, HeaderClientID); id != "" && ip.trustsPeer(r.RemoteAddr) {
		return id
	}
	return remoteHost(r)
}

// trustsPeer reports whether the peer behind remoteAddr may assert the
// identity header.
func (ip IdentityPolicy) trustsPeer(remoteAddr string) bool {
	if ip.trusted == nil {
		return true
	}
	host, _, err := net.SplitHostPort(remoteAddr)
	if err != nil || host == "" {
		host = remoteAddr
	}
	return ip.trusted[host]
}

// remoteHost extracts the request's remote host. Remote addresses are
// split with net.SplitHostPort so bracketed IPv6 addresses
// ("[::1]:4242") keep their full host; addresses without a port are
// used as-is.
func remoteHost(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// headerValue returns the first value of the header named by the
// canonical key, like http.Header.Get without canonicalizing the key
// again.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// ServeHTTP serves the document and attaches prefetch hints for the
// client identity the server's TrustedPeers policy resolves.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.ServeClient(w, r, s.identity.ClientOf(r))
}

// ServeClient serves r as ServeHTTP does, for a client identity the
// caller has already resolved: the cluster router hands each request
// to its owning shard this way, without copying the request to stamp
// the identity on it. It holds no global lock: document lookup and
// prediction run on an immutable model snapshot, and session
// bookkeeping touches only the client's context shard.
func (s *Server) ServeClient(w http.ResponseWriter, r *http.Request, client string) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// One clock reading serves the request: the latency start, the
	// session and hint stamps, and every rolling-window write. An
	// injected Clock drives the stamps and windows, while latency stays
	// on the wall clock.
	start := time.Now()
	at := start
	if s.cfg.Clock != nil {
		at = s.cfg.Clock()
	}
	// Client hit reports ride along on any request (and on report-only
	// beacons); ingest them before demand accounting so a batch
	// attached to a navigation scores in client-event order.
	if rep := headerValue(r.Header, HeaderPrefetchReport); rep != "" {
		s.ingestReports(client, rep, at)
	}
	if headerValue(r.Header, HeaderPrefetchReportOnly) != "" {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	doc, ok := s.store.Lookup(r.URL.Path)
	if !ok {
		s.metrics.notFound.Inc()
		http.NotFound(w, r)
		return
	}
	// Session contexts and hint records outlive the request, so they
	// keep the store's copy of the URL: the request path is a substring
	// of the request line and would pin all of it.
	url := doc.URL
	if url != r.URL.Path {
		url = strings.Clone(r.URL.Path)
	}

	isPrefetch := headerValue(r.Header, HeaderPrefetchFetch) != ""
	var hints []markov.Prediction
	if isPrefetch {
		s.metrics.prefetchRequests.Inc()
		s.metrics.prefetchBytes.Add(int64(len(doc.Body)))
		s.observePrefetchFetch(client, url, int64(len(doc.Body)), at)
	} else {
		s.metrics.demandRequests.Inc()
		s.metrics.demandBytes.Add(int64(len(doc.Body)))
		hints = s.observeDemand(client, url, int64(len(doc.Body)), at)
	}

	// The response header values share one backing array, each cut with
	// its capacity capped so that an Add to one header reallocates it
	// instead of writing into its neighbour.
	vals := new([3]string)
	vals[0] = doc.ContentType
	if vals[0] == "" {
		vals[0] = "text/html; charset=utf-8"
	}
	vals[1] = strconv.Itoa(len(doc.Body))
	h := w.Header()
	h["Content-Type"] = vals[0:1:1]
	h["Content-Length"] = vals[1:2:2]
	if len(hints) > 0 {
		vals[2] = FormatHints(hints)
		h[HeaderPrefetch] = vals[2:3:3]
	}
	elapsed := time.Since(start)
	if isPrefetch {
		s.metrics.prefetchLatency.Observe(elapsed)
	} else {
		s.metrics.demandLatency.Observe(elapsed)
		s.live.observeLatency(at, elapsed)
	}
	if r.Method == http.MethodHead {
		return
	}
	w.Write(doc.Body) //nolint:errcheck // client disconnects are not server errors
}

// observePrefetchFetch credits a hint-driven prefetch against the
// client's outstanding hints and scores the transfer as prefetch
// traffic. A prefetch does not open sessions or extend the idle clock.
func (s *Server) observePrefetchFetch(client, url string, size int64, at time.Time) {
	now := s.stamp(at)
	sh := s.shard(client)
	sh.mu.Lock()
	ctx := sh.contexts[client]
	var rec hintRecord
	found, first := false, false
	if ctx != nil {
		// The hint stays outstanding: a later demand click or client
		// report for it is the prediction coming true.
		if i := ctx.hintedIndex(url); i >= 0 {
			if !ctx.hinted[i].fetched {
				ctx.hinted[i].fetched = true
				first = true
			}
			rec = ctx.hinted[i]
			found = true
		}
	}
	sh.mu.Unlock()
	if found {
		s.metrics.hintFetches.Inc()
	}
	grade := s.live.gradeOf(url)
	if first {
		s.live.fetchedHint(client, rec, grade, now)
	}
	// Every hint-driven transfer counts as prefetch traffic under its
	// URL's grade, scored against the model that issued the hint when
	// we know it.
	s.live.prefetched(at, rec.model, grade, size)
}

// ingestReports scores a client's batched local hit outcomes, the
// X-Prefetch-Report header value (see HeaderPrefetchReport), walking
// the header entry by entry: a prefetch-hit report closes the matching
// hint record and scores a PrefetchHit against the issuing model; a
// cache-hit report scores an ordinary CacheHit. Sizes come from the
// content store, mirroring what the client's cached copy held.
func (s *Server) ingestReports(client, header string, at time.Time) {
	now := s.stamp(at)
	sh := s.shard(client)
	headerElems(header, func(elem string) {
		url, outcome, ok := parseReportElem(elem)
		if !ok {
			return
		}
		var size int64
		if doc, ok := s.store.Lookup(url); ok {
			size = int64(len(doc.Body))
		}
		if outcome == quality.CacheHit {
			s.live.demand(at, size, quality.CacheHit)
			return
		}
		sh.mu.Lock()
		rec := hintRecord{url: url, issued: now}
		matched := false
		if ctx := sh.contexts[client]; ctx != nil {
			if i := ctx.hintedIndex(url); i >= 0 {
				rec = ctx.hinted[i]
				ctx.hinted = append(ctx.hinted[:i], ctx.hinted[i+1:]...)
				matched = true
			}
		}
		sh.mu.Unlock()
		// An unmatched report still scores (the client really was
		// served from its prefetch cache) against a synthetic record,
		// but it is counted: a rising rate means hints are being
		// evicted too aggressively or, in a cluster, reports are
		// landing on shards that never issued them (rebalance).
		if !matched {
			s.metrics.reportsUnmatched.Inc()
		}
		s.live.hit(client, rec, size, true, at, now)
	})
}

// predBufPool recycles prediction scratch buffers across requests. The
// markov.BufferedPredictor contract guarantees the model neither
// retains the buffer nor aliases its own storage into it, so a buffer
// can be returned to the pool as soon as the hints have been filtered
// out of it. With an arena-frozen model this makes the per-request
// prediction completely allocation-free in steady state.
var predBufPool = sync.Pool{
	New: func() any { return new([]markov.Prediction) },
}

// observeDemand updates the client's session context and statistics,
// scores the request against the live quality model, and computes the
// prefetch hints for this response. Only the client's context shard is
// locked; prediction
// and store lookups run lock-free. A streaming model advances the
// session's match state by this one URL under the lock; any other model
// gets a snapshot of the context tail.
func (s *Server) observeDemand(client, url string, size int64, at time.Time) []markov.Prediction {
	span := s.tracer.Start()
	now := s.stamp(at)
	// Every demand request that reaches the server is a miss in the
	// client's caches; hits are scored from client reports instead.
	s.live.demand(at, size, quality.Miss)

	cell := s.pred.Load()
	sh := s.shard(client)
	sh.mu.Lock()
	ctx := sh.contexts[client]
	var ended *clientContext
	var endPrev, endDone chan struct{}
	if ctx == nil || now-ctx.last > int64(s.cfg.idle()) {
		if ctx != nil {
			ended = ctx
			endPrev, endDone = sh.endSession(client)
		}
		ctx = &clientContext{}
		sh.contexts[client] = ctx
		s.metrics.sessionsStarted.Inc()
	}
	// A demand click on a previously hinted URL confirms the prediction;
	// consume the hint so one issuance counts at most one hit.
	hintHit := false
	var hitRec hintRecord
	if i := ctx.hintedIndex(url); i >= 0 {
		hitRec = ctx.hinted[i]
		ctx.hinted = append(ctx.hinted[:i], ctx.hinted[i+1:]...)
		hintHit = true
	}
	ctx.urls = append(ctx.urls, url)
	ctx.last = now
	span.Mark(obs.StageSession)
	// Only the trailing predictContextTail URLs reach the model: every
	// shipped model matches at most its branch height (≤ 7 URLs), so
	// this keeps the hot path O(1) even for marathon sessions while the
	// full session is still recorded for OnSessionEnd training.
	tail := ctx.urls
	if len(tail) > predictContextTail {
		tail = tail[len(tail)-predictContextTail:]
	}
	var node uint32
	var snapshot []string
	switch {
	case cell == nil:
	case cell.stream == nil:
		// Snapshot the tail so prediction runs without the shard lock (a
		// concurrent request from the same client may append to
		// ctx.urls).
		snapshot = append([]string(nil), tail...)
	case ctx.gen == cell.gen:
		ctx.node = cell.stream.Step(ctx.node, url, predictContextTail)
		node = ctx.node
	default:
		// A new session, or a model published since this session's last
		// request: rebuild the match state from the tail once.
		ctx.node = 0
		for _, u := range tail {
			ctx.node = cell.stream.Step(ctx.node, u, predictContextTail)
		}
		ctx.gen = cell.gen
		node = ctx.node
	}
	sh.mu.Unlock()

	if hintHit {
		s.metrics.hintHits.Inc()
		// The prediction came true, but the request reached the server,
		// so the prefetched copy (if any) did not serve it: a lifecycle
		// hit without the byte savings — already scored as a Miss above.
		s.live.hit(client, hitRec, size, false, at, now)
	}
	if ended != nil {
		s.deliverSessionEnd(sh, client, ended, endPrev, endDone, now)
	}
	span.Mark(obs.StageContext)

	if cell == nil {
		span.Finish(client, url)
		return nil
	}
	bufp := predBufPool.Get().(*[]markov.Prediction)
	var preds []markov.Prediction
	if cell.stream != nil {
		preds = cell.stream.PredictFrom(node, url, predictContextTail, *bufp)
	} else {
		preds = markov.PredictInto(cell.p, snapshot, *bufp)
	}
	span.Mark(obs.StagePredict)
	// Filter into a fresh slice: preds lives in pooled scratch that the
	// next request will overwrite (the markov.BufferedPredictor contract
	// says the result reuses buf's storage), while the hints escape into
	// the client context. Compacting in place over preds[:0] and handing
	// that out would let a recycled buffer corrupt an earlier response.
	limit := s.cfg.maxHints()
	if limit > len(preds) {
		limit = len(preds)
	}
	out := make([]markov.Prediction, 0, limit)
	for _, p := range preds {
		doc, ok := s.store.Lookup(p.URL)
		if !ok || len(doc.Body) > maxHintBytes {
			continue
		}
		// The hint record outlives the model snapshot; keep the store's
		// copy of the URL rather than one pointing into the model.
		if doc.URL == p.URL {
			p.URL = doc.URL
		}
		out = append(out, p)
		if len(out) == limit {
			break
		}
	}
	*bufp = preds[:0]
	predBufPool.Put(bufp)
	s.metrics.hintsIssued.Add(int64(len(out)))
	if len(out) > 0 {
		// Remember what was hinted so later requests can close the
		// precision loop. Re-locking is required — prediction above ran
		// without the shard lock — and the context is re-fetched because
		// an expiry may have removed it meanwhile. At the default hint
		// count the records dropped over the cap fit the stack buffer.
		var dropBuf [4]hintRecord
		dropped := dropBuf[:0]
		sh.mu.Lock()
		if ctx := sh.contexts[client]; ctx != nil {
			dropped = ctx.recordHinted(out, cell.score, now, s.hintCap(), dropped)
		}
		sh.mu.Unlock()
		s.live.issued(client, cell.score, out)
		s.wasteHints(client, dropped, now)
	}
	span.Mark(obs.StageHints)
	span.Finish(client, url)
	return out
}

// wasteHints emits Wasted lifecycle events for hint records leaving a
// context (session end or cap eviction) that were fetched but never
// hit — prefetched transfers that bought nothing.
func (s *Server) wasteHints(client string, recs []hintRecord, now int64) {
	for _, rec := range recs {
		if rec.fetched {
			s.live.wasted(client, rec, now)
		}
	}
}

// contextURLs returns a copy of the client's open session context, or
// nil when no session is open. It is a diagnostic and test hook.
func (s *Server) contextURLs(client string) []string {
	sh := s.shard(client)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ctx := sh.contexts[client]
	if ctx == nil {
		return nil
	}
	return append([]string(nil), ctx.urls...)
}

// endSession registers the end of client's open session, whose context
// the caller (holding sh.mu) is removing: done is the channel the end's
// delivery closes, and prev the client's previous end delivery if it is
// still in flight. An end waits for its predecessor's, so chaining each
// end onto the one listed when it is registered keeps every client's
// ends in session order.
func (sh *contextShard) endSession(client string) (prev, done chan struct{}) {
	prev = sh.ending[client]
	done = make(chan struct{})
	sh.ending[client] = done
	return prev, done
}

// deliverSessionEnd runs a closed session's callbacks — Wasted hint
// events and OnSessionEnd — with no server lock held. It first waits
// for the client's previous session end (prev, if one was in flight)
// so the maintainer observes each client's sessions in session order,
// and closes done afterwards so the client's next end waits on this
// one. The registration in sh.ending is cleaned up unless a later end
// has already replaced it.
func (s *Server) deliverSessionEnd(sh *contextShard, client string, ctx *clientContext, prev, done chan struct{}, now int64) {
	defer func() {
		close(done)
		sh.mu.Lock()
		if sh.ending[client] == done {
			delete(sh.ending, client)
		}
		sh.mu.Unlock()
	}()
	if prev != nil {
		<-prev
	}
	s.wasteHints(client, ctx.hinted, now)
	if s.cfg.OnSessionEnd != nil {
		s.cfg.OnSessionEnd(client, ctx.urls, s.timeAt(ctx.last))
	}
}

// endedCtx is one context removed from its shard, awaiting callback
// delivery outside the shard lock.
type endedCtx struct {
	sh         *contextShard
	client     string
	ctx        *clientContext
	prev, done chan struct{}
}

// removeSessions removes every context matching keep==false from the
// shards and returns them registered for ordered end delivery; the
// caller delivers them without any lock held.
func (s *Server) removeSessions(expire func(*clientContext) bool) []endedCtx {
	var ended []endedCtx
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c, ctx := range sh.contexts {
			if expire(ctx) {
				delete(sh.contexts, c)
				prev, done := sh.endSession(c)
				ended = append(ended, endedCtx{sh: sh, client: c, ctx: ctx, prev: prev, done: done})
			}
		}
		sh.mu.Unlock()
	}
	return ended
}

// ExpireSessions drops client contexts idle beyond the session window;
// long-running servers call it periodically to bound memory. Expired
// contexts are reported through OnSessionEnd in per-client session
// order (an expiry racing a new request from the same client cannot
// deliver the newer session's end first). Each shard is locked
// independently, so expiry never stalls the whole server.
func (s *Server) ExpireSessions() int {
	now := s.now()
	ended := s.removeSessions(func(ctx *clientContext) bool {
		return now-ctx.last > int64(s.cfg.idle())
	})
	s.metrics.sessionsExpired.Add(int64(len(ended)))
	for _, e := range ended {
		s.deliverSessionEnd(e.sh, e.client, e.ctx, e.prev, e.done, now)
	}
	return len(ended)
}

// FlushSessions ends every open client context regardless of idleness,
// delivering each through OnSessionEnd like ExpireSessions. A cluster
// uses it to drain a shard leaving the ring so its in-progress
// sessions still reach the training window; a server shutting down can
// use it the same way.
func (s *Server) FlushSessions() int {
	now := s.now()
	ended := s.removeSessions(func(*clientContext) bool { return true })
	s.metrics.sessionsExpired.Add(int64(len(ended)))
	for _, e := range ended {
		s.deliverSessionEnd(e.sh, e.client, e.ctx, e.prev, e.done, now)
	}
	return len(ended)
}

// OpenSession describes one open client context: how many URLs the
// session has accumulated and how many hint records are outstanding.
// The cluster's rebalance accounting reads these to price a ring
// change (sessions remapped, hints orphaned).
type OpenSession struct {
	Client string
	URLs   int
	Hints  int
	Last   time.Time
}

// OpenSessions snapshots the currently open client contexts. Each
// shard is locked briefly and independently.
func (s *Server) OpenSessions() []OpenSession {
	var out []OpenSession
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c, ctx := range sh.contexts {
			out = append(out, OpenSession{
				Client: c, URLs: len(ctx.urls), Hints: len(ctx.hinted), Last: s.timeAt(ctx.last),
			})
		}
		sh.mu.Unlock()
	}
	return out
}
