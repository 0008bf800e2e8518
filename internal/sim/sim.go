// Package sim implements the paper's trace-driven simulation
// environment (§2.2): a Web server holding a prediction model, clients
// with 1 MB LRU browser caches, optionally a proxy tier with a 16 GB
// LRU cache, and prefetch decisioning with the paper's probability and
// size thresholds. A run replays test-window sessions in time order,
// serving each page view from the nearest cache or the server, pushing
// prefetched documents alongside responses, and accumulating the four
// §2.3 metrics.
//
// Prefetched documents ride along with responses ("sending both
// requested and prefetched data to the targeted clients"), so
// predictions fire only for requests that actually reach the server —
// browser and proxy cache hits are invisible to it. The server keeps a
// per-session context of the requests it has seen and matches as many
// previous URLs as possible, the paper's longest-matching method.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pbppm/internal/cache"
	"pbppm/internal/latency"
	"pbppm/internal/markov"
	"pbppm/internal/metrics"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
	"pbppm/internal/session"
)

// popularMinGrade is the lowest popularity grade the popular-prefetch-hit
// metric counts as popular.
const popularMinGrade popularity.Grade = 2

// refreezeEvery is the online-training cadence: a replay re-freezes the
// model at the first event of a later simulated hour than a session
// end, the way a maintainer publishes on a timer. Per session end it
// would be too slow: on the small NASA workload a freeze of the online
// PB-PPM model takes about 370 µs, so the test day's 564 session ends
// would cost about 208 ms against 26 ms for the whole ablation, while
// they fall in 22 hours and the hourly re-freezes cost 4–7 ms.
const refreezeEvery = time.Hour

// noOrderCap is the order cap the replay matches with: none beyond the
// model's own clamp height. Unlike the server's 16-URL tail, the
// simulator matches whole contexts, and unbounded PPM's tree reaches
// depth 150 on the small NASA workload.
const noOrderCap = math.MaxInt

// DefaultMaxPrefetchBytes is the paper's size threshold for the
// standard and LRS models (10 KB); PBMaxPrefetchBytes is the 30 KB
// threshold used for PB-PPM in the client–server experiments.
const (
	DefaultMaxPrefetchBytes = 10 * 1024
	PBMaxPrefetchBytes      = 30 * 1024
)

// Optimizer is implemented by models with a post-build space
// optimization pass (PB-PPM).
type Optimizer interface {
	Optimize() int
}

// Options configures a simulation run.
type Options struct {
	// Predictor is the trained prediction model; nil runs the
	// no-prefetch baseline.
	Predictor markov.Predictor
	// MaxPrefetchBytes drops prefetch candidates larger than this
	// (documents measured with embedded objects). Zero selects
	// DefaultMaxPrefetchBytes.
	MaxPrefetchBytes int64
	// Path supplies the latency models; the zero value selects
	// latency.DefaultPath().
	Path latency.Path
	// UseProxy interposes a shared 16 GB proxy cache between the
	// clients' 1 MB browser caches and the server (the §5 experiment);
	// prefetched documents are then pushed to the proxy, not the
	// browsers.
	UseProxy bool
	// Grades classifies documents for the popular-prefetch-hit metric;
	// nil disables that metric. Popular means grade 2 or 3.
	Grades popularity.Grader
	// OnlineTraining feeds each completed test session back into the
	// model, emulating a continuously maintained server model: a
	// session trains the model when it ends, and predictions see it
	// from the next simulated hour on (refreezeEvery). Path
	// utilization is not measured then and stays 0.
	OnlineTraining bool
	// PredictOnHitToo makes every demand click visible to the server
	// (as if clients revalidated every cached copy), so predictions
	// also fire on cache hits. The default (false) is the paper's
	// piggyback architecture: only requests that reach the server
	// trigger prefetch pushes.
	PredictOnHitToo bool
	// CachePolicy selects the replacement policy for browser and proxy
	// caches: PolicyLRU (the paper's §2.2 default) or PolicyGDSF (the
	// popularity-aware policy of the paper's reference [16]).
	CachePolicy CachePolicy
	// Sizes maps URL to document size (with embedded objects). If nil,
	// the table is built from the test sessions themselves; supplying
	// one built from the training window too avoids zero-size prefetch
	// estimates for unseen documents.
	Sizes map[string]int64
	// OnProgress, if set, receives a Progress snapshot every
	// ProgressEvery replayed page views and once more when the replay
	// ends, so long trace replays are no longer opaque. It is called
	// synchronously from the replay loop and must be cheap.
	OnProgress func(Progress)
	// ProgressEvery is the page-view interval between OnProgress calls;
	// zero selects 50000.
	ProgressEvery int
	// Phases, if set, receives the replay's wall time under
	// PhaseSimulate and its event count; Compare additionally records
	// each model's training time under PhaseTrain. Nil disables phase
	// timing.
	Phases *PhaseClock
}

// Progress is a snapshot of a running replay, delivered to
// Options.OnProgress.
type Progress struct {
	// Phase names the run phase the snapshot belongs to (always
	// PhaseSimulate from Run's replay loop; harnesses layering their
	// own phases may report others).
	Phase string
	// Events is the number of page views replayed so far; TotalEvents
	// the number the replay will process.
	Events      int64
	TotalEvents int64
	// HitRatio is the partial hit ratio over the events replayed so far.
	HitRatio float64
	// PrefetchHits is the partial prefetch-hit count.
	PrefetchHits int64
	// Elapsed is wall-clock time since the replay started; EventsPerSec
	// the replay throughput over that span.
	Elapsed      time.Duration
	EventsPerSec float64
}

func (o Options) maxPrefetch() int64 {
	if o.MaxPrefetchBytes == 0 {
		return DefaultMaxPrefetchBytes
	}
	return o.MaxPrefetchBytes
}

func (o Options) path() latency.Path {
	if o.Path == (latency.Path{}) {
		return latency.DefaultPath()
	}
	return o.Path
}

// CachePolicy names a cache replacement policy.
type CachePolicy int

const (
	// PolicyLRU is the paper's replacement policy.
	PolicyLRU CachePolicy = iota
	// PolicyGDSF is popularity-aware GreedyDual-Size-Frequency.
	PolicyGDSF
)

// String returns the policy name.
func (p CachePolicy) String() string {
	if p == PolicyGDSF {
		return "gdsf"
	}
	return "lru"
}

// newCache builds a cache of the configured policy.
func (o Options) newCache(capacity int64) cache.Policy {
	if o.CachePolicy == PolicyGDSF {
		return cache.NewGDSF(capacity)
	}
	return cache.NewLRU(capacity)
}

func (o Options) progressEvery() int {
	if o.ProgressEvery <= 0 {
		return 50000
	}
	return o.ProgressEvery
}

// URLSequences extracts the clicked URL sequences from sessions — the
// training food for every model.
func URLSequences(sessions []session.Session) [][]string {
	out := make([][]string, len(sessions))
	for i, s := range sessions {
		out[i] = s.URLs()
	}
	return out
}

// BuildSizeTable returns the largest observed transfer size (page plus
// embedded objects) per URL.
func BuildSizeTable(sessionSets ...[]session.Session) map[string]int64 {
	sizes := make(map[string]int64)
	for _, set := range sessionSets {
		for _, s := range set {
			for _, v := range s.Views {
				if tb := v.TotalBytes(); tb > sizes[v.URL] {
					sizes[v.URL] = tb
				}
			}
		}
	}
	return sizes
}

// Train folds the training sessions into the predictor, serially and
// in session order, and runs its space optimization if it has one. It
// returns the node count after training, for convenience.
func Train(p markov.Predictor, train []session.Session) int {
	markov.TrainAll(p, URLSequences(train))
	if opt, ok := p.(Optimizer); ok {
		opt.Optimize()
	}
	return p.NodeCount()
}

// event is one page view scheduled for replay.
type event struct {
	t       time.Time
	client  string
	session int // index into the session list
	view    int // index into the session's views
}

// openSession is the server's view of an in-flight session: the
// requests it has seen and their match state in the snapshot.
type openSession struct {
	ctx  []string
	node uint32
}

// Run replays the test sessions against the configured topology and
// returns the accumulated metrics. The supplied predictor must already
// be trained (see Train). Run predicts from markov.Freeze of it, the
// snapshot every server installs, stepping one match state per session
// through a frozen tree; any other snapshot (Top-N's) predicts from
// each session's whole context. Path utilization counts the leaves of
// the frozen tree this Run's predictions touched, so each Run measures
// its own predictions only.
func Run(test []session.Session, opt Options) metrics.Result {
	res := metrics.Result{Model: "none"}
	if opt.Predictor != nil {
		res.Model = opt.Predictor.Name()
	}
	sizes := opt.Sizes
	if sizes == nil {
		sizes = BuildSizeTable(test)
	}
	path := opt.path()
	maxPf := opt.maxPrefetch()

	// Replay strictly in time order across sessions so cache contents
	// evolve exactly as the interleaved trace dictates.
	var events []event
	for si, s := range test {
		for vi, v := range s.Views {
			events = append(events, event{t: v.Time, client: s.Client, session: si, view: vi})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if !events[i].t.Equal(events[j].t) {
			return events[i].t.Before(events[j].t)
		}
		if events[i].client != events[j].client {
			return events[i].client < events[j].client
		}
		return events[i].session < events[j].session ||
			(events[i].session == events[j].session && events[i].view < events[j].view)
	})

	browsers := make(map[string]cache.Policy)
	browserFor := func(client string) cache.Policy {
		b := browsers[client]
		if b == nil {
			b = opt.newCache(cache.DefaultBrowserCapacity)
			browsers[client] = b
		}
		return b
	}
	var proxy cache.Policy
	if opt.UseProxy {
		proxy = opt.newCache(cache.DefaultProxyCapacity)
	}

	// The simulate phase includes the freeze: the snapshot is part of
	// the replay's cost.
	replayStart := time.Now()

	// snap is the snapshot predictions come from, and frozen the same
	// snapshot when it is a frozen tree; used is a node-indexed bitset
	// over its arena.
	var (
		snap   markov.Predictor
		frozen *markov.FrozenTree
		used   []uint64
	)
	freeze := func() {
		snap = markov.Freeze(opt.Predictor)
		frozen, _ = snap.(*markov.FrozenTree)
	}
	if opt.Predictor != nil {
		freeze()
		if frozen != nil && !opt.OnlineTraining {
			used = make([]uint64, (frozen.Arena().NodeCount()+64)/64)
		}
	}
	open := make(map[int]openSession, len(test))
	// endedHour is the simulated hour of the first session end since
	// the last freeze, zero when there is none.
	var endedHour time.Time

	// All §2.3 quality accounting flows through a quality.Scorer — the
	// same implementation the live server scores its hint lifecycle
	// with — so offline and online metrics cannot drift apart.
	score := quality.NewScorer()
	latencies := obs.NewHistogram(nil)

	every := opt.progressEvery()
	report := func(done int64) {
		elapsed := time.Since(replayStart)
		part := score.Total()
		p := Progress{
			Phase:        PhaseSimulate,
			Events:       done,
			TotalEvents:  int64(len(events)),
			HitRatio:     part.HitRatio(),
			PrefetchHits: part.PrefetchHits,
			Elapsed:      elapsed,
		}
		if secs := elapsed.Seconds(); secs > 0 {
			p.EventsPerSec = float64(done) / secs
		}
		opt.OnProgress(p)
	}

	// One prediction scratch buffer is reused for the whole replay: the
	// markov.BufferedPredictor contract guarantees predictions are
	// consumed before the next call overwrites them, so an arena-frozen
	// model runs the entire event loop without per-event allocations.
	var predBuf []markov.Prediction

	for evIdx, ev := range events {
		if !endedHour.IsZero() && ev.t.Truncate(refreezeEvery).After(endedHour) {
			freeze()
			endedHour = time.Time{}
			for si, sess := range open {
				if frozen == nil {
					break
				}
				sess.node = 0
				for _, u := range sess.ctx {
					sess.node = frozen.Step(sess.node, u, noOrderCap)
				}
				open[si] = sess
			}
		}
		v := test[ev.session].Views[ev.view]
		size := v.TotalBytes()
		outcome := quality.Miss

		browser := browserFor(ev.client)
		served := false

		if ok, prefetched := browser.Get(v.URL); ok {
			served = true
			res.BrowserHits++
			if prefetched {
				outcome = quality.PrefetchHit
				if opt.Grades != nil && opt.Grades.GradeOf(v.URL) >= popularMinGrade {
					res.PrefetchHitsPopular++
				}
				browser.MarkDemand(v.URL)
			} else {
				outcome = quality.CacheHit
			}
			// Local hit: negligible latency.
			latencies.Observe(0)
		}

		if !served && proxy != nil {
			if ok, prefetched := proxy.Get(v.URL); ok {
				served = true
				if prefetched {
					outcome = quality.PrefetchHit
					res.ProxyPrefetchHits++
					if opt.Grades != nil && opt.Grades.GradeOf(v.URL) >= popularMinGrade {
						res.PrefetchHitsPopular++
					}
					proxy.MarkDemand(v.URL)
				} else {
					outcome = quality.CacheHit
					res.ProxyCacheHits++
				}
				hitLat := path.ProxyHit(size)
				res.TotalLatency += hitLat
				latencies.Observe(hitLat)
				browser.Put(v.URL, size, false)
			}
		}

		if !served {
			// Fetch from the server.
			var missLat time.Duration
			if proxy != nil {
				missLat = path.ProxyMiss(size)
				proxy.Put(v.URL, size, false)
			} else {
				missLat = path.DirectFetch(size)
			}
			res.TotalLatency += missLat
			latencies.Observe(missLat)
			browser.Put(v.URL, size, false)
		}
		score.Demand(v.Time, size, outcome)

		// The server's view of the session: requests that reached it.
		// Cache hits stay invisible unless PredictOnHitToo is set.
		reachedServer := !served || opt.PredictOnHitToo
		sess := open[ev.session]
		if reachedServer {
			sess.ctx = append(sess.ctx, v.URL)
			if frozen != nil {
				sess.node = frozen.Step(sess.node, v.URL, noOrderCap)
			}
			open[ev.session] = sess
		}
		if ev.view == len(test[ev.session].Views)-1 {
			delete(open, ev.session)
			if opt.OnlineTraining && opt.Predictor != nil {
				opt.Predictor.TrainSequence(test[ev.session].URLs())
				if endedHour.IsZero() {
					endedHour = ev.t.Truncate(refreezeEvery)
				}
			}
		}
		if opt.Predictor != nil && reachedServer {
			if frozen != nil {
				predBuf = frozen.PredictMarking(sess.node, v.URL, noOrderCap, predBuf, used)
			} else {
				predBuf = markov.PredictInto(snap, sess.ctx, predBuf)
			}
			for _, p := range predBuf {
				psize, known := sizes[p.URL]
				if !known || psize > maxPf {
					continue
				}
				if proxy != nil {
					// §5: the server pushes predicted documents to the proxy.
					if proxy.Contains(p.URL) {
						continue
					}
					proxy.Put(p.URL, psize, true)
				} else {
					if browser.Contains(p.URL) {
						continue
					}
					browser.Put(p.URL, psize, true)
				}
				score.Prefetched(v.Time, psize)
			}
		}
		if opt.OnProgress != nil && (evIdx+1)%every == 0 {
			report(int64(evIdx + 1))
		}
	}
	if opt.OnProgress != nil && len(events) > 0 {
		report(int64(len(events)))
	}
	opt.Phases.Observe(PhaseSimulate, time.Since(replayStart))
	opt.Phases.AddEvents(int64(len(events)))

	// Fold the scorer's totals into the result; the integer accounting
	// is identical to the pre-scorer implementation by construction.
	total := score.Total()
	res.Requests = total.Requests
	res.CacheHits = total.CacheHits
	res.PrefetchHits = total.PrefetchHits
	res.PrefetchedDocs = total.PrefetchedDocs
	res.TransferredBytes = total.TransferredBytes
	res.UsefulBytes = total.UsefulBytes
	res.PrefetchedBytes = total.PrefetchedBytes

	res.Latencies = latencies.Snapshot()
	res.Nodes = 0
	if opt.Predictor != nil {
		res.Nodes = opt.Predictor.NodeCount()
	}
	if used != nil {
		res.Utilization = utilization(frozen.Arena(), used)
	}
	return res
}

// utilization is the share of the arena's root-to-leaf paths whose leaf
// has its bit set in used (the paper's §3.3 path-utilization rate), or
// zero for an empty model.
func utilization(a *markov.Arena, used []uint64) float64 {
	leaves, hit := 0, 0
	for n := uint32(1); n <= uint32(a.NodeCount()); n++ {
		if a.IsLeaf(n) {
			leaves++
			hit += int(used[n/64] >> (n % 64) & 1)
		}
	}
	if leaves == 0 {
		return 0
	}
	return float64(hit) / float64(leaves)
}

// Compare trains each predictor on the training window, runs it on the
// test window with per-model options, and also runs the no-prefetch
// baseline. It is the workhorse the experiment harness builds on.
func Compare(train, test []session.Session, runs []NamedRun) []metrics.Result {
	results := make([]metrics.Result, 0, len(runs)+1)
	sizes := BuildSizeTable(train, test)

	base := runs[0].Options
	base.Predictor = nil
	base.Sizes = sizes
	baseline := Run(test, base)
	baseline.Model = "none"
	results = append(results, baseline)

	for _, r := range runs {
		opts := r.Options
		opts.Sizes = sizes
		opts.Phases.Time(PhaseTrain, func() { Train(opts.Predictor, train) })
		res := Run(test, opts)
		if r.Name != "" {
			res.Model = r.Name
		}
		results = append(results, res)
	}
	return results
}

// NamedRun pairs a configured run with an optional display name
// override (e.g. "PB-PPM-4KB").
type NamedRun struct {
	Name    string
	Options Options
}

// FitPathFromTrace fits the client-server latency model from synthetic
// measured samples derived from the observed document sizes, mirroring
// the paper's least-squares methodology, and returns a Path whose proxy
// legs are scaled from the fit. seed makes the sample noise
// reproducible.
func FitPathFromTrace(sizes map[string]int64, seed int64) (latency.Path, error) {
	truth := latency.DefaultPath()
	samples := latency.SyntheticSamples(truth.ClientServer, sizes, seed)
	fitted, err := latency.Fit(samples)
	if err != nil {
		return latency.Path{}, fmt.Errorf("sim: fitting latency model: %w", err)
	}
	p := latency.Path{
		ClientServer: fitted,
		ClientProxy: latency.Model{
			Connect:      fitted.Connect / 10,
			TransferRate: fitted.TransferRate / 10,
		},
		ProxyServer: latency.Model{
			Connect:      fitted.Connect * 5 / 6,
			TransferRate: fitted.TransferRate * 5 / 6,
		},
	}
	return p, nil
}
