package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/obs"
	"pbppm/internal/server"
	"pbppm/internal/tracegen"
)

// LoadLatencyBounds are the histogram bounds for load-test latency and
// schedule lag: finer than the serving-side DefaultLatencyBounds at
// the bottom (100µs) because a loopback hit on a warm server is
// sub-millisecond and the interesting capacity signal is the knee
// where those observations climb.
var LoadLatencyBounds = []time.Duration{
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// Config parameterizes a Generator.
type Config struct {
	// ServerURL is the prefetching server root, e.g.
	// "http://127.0.0.1:8080". Required.
	ServerURL string
	// AdminURL is the server's admin root; when set, each slot boundary
	// polls AdminURL/debug/slo and records the objectives' states.
	AdminURL string
	// Site is the synthetic site the server serves; the navigator walks
	// it. Required.
	Site *tracegen.Site
	// Profile supplies the walk parameters (head bias, link
	// probabilities, session length) — normally the same profile the
	// server was booted with.
	Profile tracegen.Profile
	// Clients sizes the warm virtual-client pool; zero selects 100.
	Clients int
	// Seed drives every random choice (client pick, session walk, cold
	// selection). The same seed, site, and scenario produce the same
	// request sequence; zero selects 1.
	Seed int64
	// Timeout bounds each request (and is how a stalled server turns
	// into timeout errors instead of a stuck generator); zero selects
	// 5s.
	Timeout time.Duration
	// Obs registers the generator's self-metrics
	// (pbppm_loadgen_dispatched_total, pbppm_loadgen_lag_seconds, ...);
	// nil keeps them process-internal.
	Obs *obs.Registry
	// Logf, when set, receives one progress line per completed slot.
	Logf func(format string, args ...any)
}

// walker is one warm virtual client: its protocol state lives in the
// server.Client, its walk state here. Walk state is touched only by
// the dispatcher goroutine.
type walker struct {
	client *server.Client
	active bool
	cur    int
	clicks int
	pCont  float64
}

// genMetrics are the generator's self-metrics; the load generator
// watches its own health (schedule lag above all) so a saturated
// generator is never mistaken for a slow server.
type genMetrics struct {
	dispatched  *obs.Counter
	complNet    *obs.Counter
	complCache  *obs.Counter
	complPref   *obs.Counter
	errTimeout  *obs.Counter
	errOther    *obs.Counter
	coldClients *obs.Counter
	inflight    *obs.Gauge
	targetRPS   *obs.FloatGauge
	latency     *obs.Histogram
	lag         *obs.Histogram
}

func newGenMetrics(reg *obs.Registry) *genMetrics {
	src := func(v string) obs.Label { return obs.Label{Name: "source", Value: v} }
	kind := func(v string) obs.Label { return obs.Label{Name: "kind", Value: v} }
	return &genMetrics{
		dispatched: reg.Counter("pbppm_loadgen_dispatched_total",
			"Requests dispatched on the open-loop schedule."),
		complNet: reg.Counter("pbppm_loadgen_completed_total",
			"Requests completed, by body source.", src("network")),
		complCache: reg.Counter("pbppm_loadgen_completed_total",
			"Requests completed, by body source.", src("cache")),
		complPref: reg.Counter("pbppm_loadgen_completed_total",
			"Requests completed, by body source.", src("prefetch")),
		errTimeout: reg.Counter("pbppm_loadgen_errors_total",
			"Requests that failed, by failure kind.", kind("timeout")),
		errOther: reg.Counter("pbppm_loadgen_errors_total",
			"Requests that failed, by failure kind.", kind("other")),
		coldClients: reg.Counter("pbppm_loadgen_cold_clients_total",
			"Never-seen clients created for cold-start arrivals."),
		inflight: reg.Gauge("pbppm_loadgen_inflight",
			"Requests dispatched but not yet completed."),
		targetRPS: reg.FloatGauge("pbppm_loadgen_target_rps",
			"Arrival rate of the slot currently dispatching."),
		latency: reg.Histogram("pbppm_loadgen_latency_seconds",
			"On-schedule request latency: completion minus scheduled arrival.",
			LoadLatencyBounds),
		lag: reg.Histogram("pbppm_loadgen_lag_seconds",
			"Schedule lag: dispatch minus scheduled arrival. The generator's own health signal.",
			LoadLatencyBounds),
	}
}

// Generator drives load scenarios against one server. A Generator is
// reusable across Run calls (FindMax runs many), but runs must not
// overlap: the walker pool and RNG are single-dispatcher state.
type Generator struct {
	cfg     Config
	nav     *Navigator
	http    *http.Client
	rng     *rand.Rand
	walkers []*walker
	metrics *genMetrics
	coldSeq int64
	// colds collects cold clients so their background prefetches drain
	// before a run returns.
	colds []*server.Client
	wg    sync.WaitGroup
}

// New builds a generator; it validates the config and constructs the
// warm client pool.
func New(cfg Config) (*Generator, error) {
	if cfg.ServerURL == "" {
		return nil, fmt.Errorf("loadgen: config needs a ServerURL")
	}
	nav, err := NewNavigator(cfg.Site, cfg.Profile)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 100
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	g := &Generator{
		cfg: cfg,
		nav: nav,
		http: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				// Open-loop load holds many requests in flight against one
				// host; the default of 2 idle conns per host would force a
				// TCP handshake per request at any real rate.
				MaxIdleConns:        4 * cfg.Clients,
				MaxIdleConnsPerHost: 4 * cfg.Clients,
			},
		},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		metrics: newGenMetrics(cfg.Obs),
	}
	for i := 0; i < cfg.Clients; i++ {
		cl, err := server.NewClient(server.ClientConfig{
			ID:         fmt.Sprintf("lg-c%04d", i),
			BaseURL:    cfg.ServerURL,
			HTTPClient: g.http,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: building client pool: %w", err)
		}
		g.walkers = append(g.walkers, &walker{client: cl})
	}
	return g, nil
}

// SLOSnapshot is the server's /debug/slo verdict at one slot boundary.
type SLOSnapshot struct {
	// State is the worst objective state ("ok" < "burning" <
	// "critical"; "no_data" when nothing has data).
	State string
	// Objectives maps each objective name to its state.
	Objectives map[string]string
}

// slotStats accumulates one slot's measurements during the run; the
// counters are atomics because request goroutines outlive their slot's
// dispatch window.
type slotStats struct {
	dispatched, completed    atomic.Int64
	timeouts, otherErrs      atomic.Int64
	network, cache, prefetch atomic.Int64
	latency, lag             *obs.Histogram
	// slo is the /debug/slo poll at the slot's dispatch boundary,
	// written by the dispatcher only.
	slo *SLOSnapshot
}

// SlotResult is one slot's finalized measurements.
type SlotResult struct {
	Slot       Slot
	Dispatched int64
	Completed  int64
	Timeouts   int64
	OtherErrs  int64
	// Network, CacheHits, and PrefetchHits split completions by body
	// source; cache and prefetch hits never touched the network, which
	// is the prefetching win showing up in the latency distribution.
	Network      int64
	CacheHits    int64
	PrefetchHits int64
	// Latency holds on-schedule latencies (completion minus scheduled
	// arrival) of successful requests dispatched in this slot — failed
	// requests count in the error totals, not here.
	Latency obs.HistogramSnapshot
	// Lag holds dispatch minus scheduled arrival for every arrival of
	// the slot: the generator's own scheduling health.
	Lag obs.HistogramSnapshot
	// SLO is the server's /debug/slo verdict polled at the slot's
	// dispatch boundary; nil without an AdminURL (or on poll failure).
	SLO *SLOSnapshot
}

// Errors returns the failed-request count.
func (s SlotResult) Errors() int64 { return s.Timeouts + s.OtherErrs }

// ErrorRate returns failures over dispatched arrivals.
func (s SlotResult) ErrorRate() float64 {
	if s.Dispatched == 0 {
		return 0
	}
	return float64(s.Errors()) / float64(s.Dispatched)
}

// AchievedRPS returns completions over the slot duration.
func (s SlotResult) AchievedRPS() float64 {
	if s.Slot.Duration <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Slot.Duration.Seconds()
}

// Result is one scenario run.
type Result struct {
	Scenario string
	// Wall is the measured wall time of the run including the drain.
	Wall  time.Duration
	Slots []SlotResult
}

// mergeSnapshots adds b's counts into a copy of a; both must share
// bounds (they do — every loadgen histogram uses LoadLatencyBounds).
func mergeSnapshots(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	if a.Bounds == nil {
		return b
	}
	out := obs.HistogramSnapshot{
		Bounds:   a.Bounds,
		Counts:   make([]int64, len(a.Counts)),
		SumNanos: a.SumNanos + b.SumNanos,
	}
	copy(out.Counts, a.Counts)
	for i := range b.Counts {
		if i < len(out.Counts) {
			out.Counts[i] += b.Counts[i]
		}
	}
	return out
}

// Latency returns the merged latency distribution across all slots.
func (r *Result) Latency() obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, s := range r.Slots {
		out = mergeSnapshots(out, s.Latency)
	}
	return out
}

// Lag returns the merged schedule-lag distribution across all slots.
func (r *Result) Lag() obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, s := range r.Slots {
		out = mergeSnapshots(out, s.Lag)
	}
	return out
}

// Dispatched sums arrivals across slots.
func (r *Result) Dispatched() int64 {
	var n int64
	for _, s := range r.Slots {
		n += s.Dispatched
	}
	return n
}

// Completed sums successful completions across slots.
func (r *Result) Completed() int64 {
	var n int64
	for _, s := range r.Slots {
		n += s.Completed
	}
	return n
}

// Errors sums failures across slots.
func (r *Result) Errors() int64 {
	var n int64
	for _, s := range r.Slots {
		n += s.Errors()
	}
	return n
}

// ErrorRate returns overall failures over arrivals.
func (r *Result) ErrorRate() float64 {
	if d := r.Dispatched(); d > 0 {
		return float64(r.Errors()) / float64(d)
	}
	return 0
}

// AchievedRPS returns overall completions over the scheduled duration.
func (r *Result) AchievedRPS() float64 {
	var sched time.Duration
	for _, s := range r.Slots {
		sched += s.Slot.Duration
	}
	if sched <= 0 {
		return 0
	}
	return float64(r.Completed()) / sched.Seconds()
}

// Run dispatches the scenario's arrival schedule, drains outstanding
// requests, and returns per-slot results. Dispatch is open-loop: each
// arrival fires at its scheduled time whether or not earlier requests
// completed, and a request's latency is measured from its scheduled
// arrival, so server stalls surface as high latency and timeouts —
// never as a politely slowed-down generator. On ctx cancellation the
// remaining schedule is abandoned and the partial result returned with
// ctx's error.
func (g *Generator) Run(ctx context.Context, sc Scenario) (*Result, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc.Name}
	stats := make([]*slotStats, len(sc.Slots))
	for i := range stats {
		stats[i] = &slotStats{
			latency: obs.NewHistogram(LoadLatencyBounds),
			lag:     obs.NewHistogram(LoadLatencyBounds),
		}
	}

	runStart := time.Now()
	slotStart := runStart
	var runErr error
dispatch:
	for si := range sc.Slots {
		slot := sc.Slots[si]
		st := stats[si]
		g.metrics.targetRPS.Set(slot.RPS)
		n := slot.Requests()
		interval := slot.Interval()
		for k := 0; k < n; k++ {
			sched := slotStart.Add(time.Duration(k) * interval)
			if wait := time.Until(sched); wait > 0 {
				timer := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					timer.Stop()
					runErr = ctx.Err()
					break dispatch
				case <-timer.C:
				}
			} else if ctx.Err() != nil {
				runErr = ctx.Err()
				break dispatch
			}
			lag := time.Since(sched)
			if lag < 0 {
				lag = 0
			}
			st.lag.Observe(lag)
			g.metrics.lag.Observe(lag)

			cl, url := g.pick(slot)
			st.dispatched.Add(1)
			g.metrics.dispatched.Inc()
			g.metrics.inflight.Add(1)
			g.wg.Add(1)
			go g.issue(cl, url, sched, st)
		}
		slotStart = slotStart.Add(slot.Duration)
		if g.cfg.AdminURL != "" {
			// The poll failing is a result (the admin endpoint fell over
			// under load is itself a finding), not a run error: the slot
			// just carries a nil SLO.
			if snap, err := g.pollSLO(); err == nil {
				st.slo = snap
			}
		}
		if g.cfg.Logf != nil {
			g.cfg.Logf("slot %s dispatched (%d arrivals at %.4g rps)",
				slot.Label, st.dispatched.Load(), slot.RPS)
		}
	}
	g.metrics.targetRPS.Set(0)

	// Drain: every dispatched request finishes (the client timeout
	// bounds stalls), then background hint prefetches.
	g.wg.Wait()
	for _, w := range g.walkers {
		w.client.Wait()
	}
	for _, cl := range g.colds {
		cl.Wait()
	}
	g.colds = g.colds[:0]
	// Deliver outstanding hit reports so the server's live quality
	// metrics see the run's tail.
	for _, w := range g.walkers {
		w.client.Flush() //nolint:errcheck // a dead server already shows up as errors
	}
	res.Wall = time.Since(runStart)

	for si := range sc.Slots {
		st := stats[si]
		res.Slots = append(res.Slots, SlotResult{
			Slot:         sc.Slots[si],
			Dispatched:   st.dispatched.Load(),
			Completed:    st.completed.Load(),
			Timeouts:     st.timeouts.Load(),
			OtherErrs:    st.otherErrs.Load(),
			Network:      st.network.Load(),
			CacheHits:    st.cache.Load(),
			PrefetchHits: st.prefetch.Load(),
			Latency:      st.latency.Snapshot(),
			Lag:          st.lag.Snapshot(),
			SLO:          st.slo,
		})
	}
	return res, runErr
}

// pick chooses the client and URL of one arrival. It runs only on the
// dispatcher goroutine, so the seeded RNG and walker states make the
// request sequence deterministic regardless of response timing.
func (g *Generator) pick(slot Slot) (*server.Client, string) {
	if slot.ColdShare > 0 && g.rng.Float64() < slot.ColdShare {
		g.coldSeq++
		cl, err := server.NewClient(server.ClientConfig{
			ID:         fmt.Sprintf("lg-cold%07d", g.coldSeq),
			BaseURL:    g.cfg.ServerURL,
			HTTPClient: g.http,
		})
		if err == nil {
			g.colds = append(g.colds, cl)
			g.metrics.coldClients.Inc()
			page, _ := g.nav.Start(g.rng, slot.HeadShift)
			return cl, g.nav.URL(page)
		}
		// Impossible with a validated config; fall through to a walker.
	}
	w := g.walkers[g.rng.Intn(len(g.walkers))]
	return w.client, g.nextURL(w, slot.HeadShift)
}

// nextURL advances a walker's session walk and returns the URL to
// request: a fresh session head when the walker is idle, ended its
// session, or hit the length cap; the navigator's next click
// otherwise.
func (g *Generator) nextURL(w *walker, headShift int) string {
	maxLen := g.cfg.Profile.MaxSessionLen
	if maxLen <= 0 {
		maxLen = 20
	}
	if w.active && (w.clicks >= maxLen || g.rng.Float64() >= w.pCont) {
		w.active = false
	}
	if w.active {
		if next, ok := g.nav.Next(g.rng, w.cur, headShift); ok {
			w.cur = next
			w.clicks++
			return g.nav.URL(next)
		}
		w.active = false
	}
	w.cur, w.pCont = g.nav.Start(g.rng, headShift)
	w.active = true
	w.clicks = 1
	return g.nav.URL(w.cur)
}

// issue performs one request and records its outcome against the slot
// it was dispatched in.
func (g *Generator) issue(cl *server.Client, url string, sched time.Time, st *slotStats) {
	defer g.wg.Done()
	defer g.metrics.inflight.Add(-1)
	source, err := cl.Get(url)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			st.timeouts.Add(1)
			g.metrics.errTimeout.Inc()
		} else {
			st.otherErrs.Add(1)
			g.metrics.errOther.Inc()
		}
		return
	}
	lat := time.Since(sched)
	st.latency.Observe(lat)
	g.metrics.latency.Observe(lat)
	st.completed.Add(1)
	switch source {
	case "cache":
		st.cache.Add(1)
	case "prefetch":
		st.prefetch.Add(1)
	default:
		st.network.Add(1)
	}
	switch source {
	case "cache":
		g.metrics.complCache.Inc()
	case "prefetch":
		g.metrics.complPref.Inc()
	default:
		g.metrics.complNet.Inc()
	}
}

// pollSLO fetches and summarizes the server's /debug/slo report.
func (g *Generator) pollSLO() (*SLOSnapshot, error) {
	url := g.cfg.AdminURL + "/debug/slo"
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s: status %s", url, resp.Status)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("loadgen: decoding %s: %w", url, err)
	}
	snap := &SLOSnapshot{State: obs.SLOStateNoData, Objectives: make(map[string]string)}
	rank := map[string]int{
		obs.SLOStateNoData: 0, obs.SLOStateOK: 1,
		obs.SLOStateBurning: 2, obs.SLOStateCritical: 3,
	}
	for _, o := range rep.Objectives {
		snap.Objectives[o.Name] = o.State
		if rank[o.State] > rank[snap.State] {
			snap.State = o.State
		}
	}
	return snap, nil
}
