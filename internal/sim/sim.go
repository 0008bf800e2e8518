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
	// model, emulating a continuously maintained server model.
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
	if ur, ok := p.(markov.UtilizationReporter); ok {
		ur.ResetUsage()
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

// Run replays the test sessions against the configured topology and
// returns the accumulated metrics. The supplied predictor must already
// be trained (see Train).
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

	// contexts tracks each in-flight session's clicked URLs so far.
	contexts := make(map[int][]string, len(test))

	// All §2.3 quality accounting flows through a quality.Scorer — the
	// same implementation the live server scores its hint lifecycle
	// with — so offline and online metrics cannot drift apart.
	score := quality.NewScorer()
	latencies := obs.NewHistogram(nil)

	replayStart := time.Now()
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
		var ctx []string
		if reachedServer {
			ctx = append(contexts[ev.session], v.URL)
			contexts[ev.session] = ctx
		} else {
			ctx = contexts[ev.session]
		}
		if ev.view == len(test[ev.session].Views)-1 {
			delete(contexts, ev.session)
			if opt.OnlineTraining && opt.Predictor != nil {
				opt.Predictor.TrainSequence(test[ev.session].URLs())
			}
		}
		if opt.Predictor != nil && reachedServer && len(ctx) > 0 {
			predBuf = markov.PredictInto(opt.Predictor, ctx, predBuf)
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
		if ur, ok := opt.Predictor.(markov.UtilizationReporter); ok {
			res.Utilization = ur.Utilization()
		}
	}
	return res
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
