package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/obs"
	"pbppm/internal/popularity"
	"pbppm/internal/quality"
)

// This file implements the server's live quality scoring: every hint
// moves through an explicit lifecycle (issued → fetched → hit or
// wasted), each transition is emitted as a structured HintEvent and a
// labelled counter, and the resulting demand/prefetch stream feeds a
// quality.Scorer per model — the same implementation internal/sim uses
// — so the paper's §2.3 precision, hit-ratio, and traffic-increase
// numbers are available as rolling-window gauges from live traffic.

// HintEventType names a hint-lifecycle transition.
type HintEventType int

const (
	// HintIssued: the hint was attached to a response.
	HintIssued HintEventType = iota
	// HintFetched: the cooperating client prefetched the hinted URL.
	HintFetched
	// HintHit: the client navigated to the hinted URL — the prediction
	// came true (whether or not the prefetched copy served it).
	HintHit
	// HintWasted: the hint was fetched but never hit before its session
	// closed — prefetched bytes that bought nothing.
	HintWasted

	numHintEvents = int(HintWasted) + 1
)

// String names the event for labels and logs.
func (t HintEventType) String() string {
	switch t {
	case HintIssued:
		return "issued"
	case HintFetched:
		return "fetched"
	case HintHit:
		return "hit"
	default:
		return "wasted"
	}
}

// HintEvent is one hint-lifecycle transition, delivered to
// Config.OnHintEvent and counted in pbppm_hint_events_total.
type HintEvent struct {
	Type   HintEventType
	Client string
	URL    string
	// Model names the prediction model that issued the hint.
	Model string
	// Grade is the hinted document's popularity grade at event time.
	Grade popularity.Grade
	// Probability is the predicted probability the hint carried.
	Probability float64
	// Age is the time since issuance (zero for HintIssued); for
	// HintHit it is the paper-relevant age-at-hit.
	Age time.Duration
}

// graderCell boxes the popularity grader interface behind an atomic
// pointer, like predictorCell does for the model.
type graderCell struct{ g popularity.Grader }

// modelScore is the live quality state for one prediction model: a
// windowed scorer plus per-grade fetched/hit counters for the
// popularity-resolved precision gauges.
type modelScore struct {
	name    string
	score   *quality.Scorer
	fetched [popularity.MaxGrade + 1]*obs.RollingCounter
	hits    [popularity.MaxGrade + 1]*obs.RollingCounter
}

// modelName names the scored model; a nil scorer (a record synthesized
// for an unmatched report) names none.
func (ms *modelScore) modelName() string {
	if ms == nil {
		return ""
	}
	return ms.name
}

func newModelScore(name string, w obs.Window) *modelScore {
	ms := &modelScore{name: name, score: quality.NewWindowedScorer(w)}
	for g := range ms.fetched {
		ms.fetched[g] = obs.NewRollingCounter(w)
		ms.hits[g] = obs.NewRollingCounter(w)
	}
	return ms
}

// liveScore owns all live-quality state: per-model scorers, the
// lifecycle event counters, and the rolling demand-latency histogram.
// The serving paths touch only atomics (current-model load plus scorer
// adds; hint records carry their issuing model's scorer); the mutex
// guards the model map, which changes only on model publishes.
type liveScore struct {
	reg     *obs.Registry
	win     obs.Window
	span    time.Duration // the "live" gauge span (Config.LiveWindow)
	onEvent func(HintEvent)

	grader  atomic.Pointer[graderCell]
	current atomic.Pointer[modelScore]

	mu     sync.Mutex
	models map[string]*modelScore

	events        [numHintEvents][popularity.MaxGrade + 1]*obs.Counter
	demandLatency *obs.RollingHistogram
}

func newLiveScore(reg *obs.Registry, win obs.Window, span time.Duration, onEvent func(HintEvent)) *liveScore {
	l := &liveScore{
		reg:           reg,
		win:           win,
		span:          span,
		onEvent:       onEvent,
		models:        make(map[string]*modelScore),
		demandLatency: obs.NewRollingHistogram(win, nil),
	}
	for t := 0; t < numHintEvents; t++ {
		for g := 0; g <= int(popularity.MaxGrade); g++ {
			l.events[t][g] = reg.Counter("pbppm_hint_events_total",
				"Hint-lifecycle transitions (issued, fetched, hit, wasted) by popularity grade.",
				obs.Label{Name: "event", Value: HintEventType(t).String()},
				obs.Label{Name: "grade", Value: strconv.Itoa(g)})
		}
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		q := q
		reg.GaugeFunc("pbppm_live_request_latency_seconds",
			"Rolling-window demand latency quantiles.",
			func() float64 { return l.demandLatency.Quantile(l.span, q).Seconds() },
			obs.Label{Name: "kind", Value: "demand"},
			obs.Label{Name: "q", Value: strconv.FormatFloat(q, 'g', -1, 64)})
	}
	// Traffic that arrives before the first model publish scores
	// against the explicit "none" baseline.
	l.setModel("none")
	return l
}

// setGrader publishes the popularity grader used to grade event URLs.
func (l *liveScore) setGrader(g popularity.Grader) {
	l.grader.Store(&graderCell{g: g})
}

// gradeOf grades a URL with the published grader, or grade 0. The
// grade indexes the per-grade counters, so any Grader's answer is
// clamped to [0, MaxGrade].
func (l *liveScore) gradeOf(url string) popularity.Grade {
	c := l.grader.Load()
	if c == nil || c.g == nil {
		return 0
	}
	return min(max(c.g.GradeOf(url), 0), popularity.MaxGrade)
}

// setModel switches the scoring target to the named model, creating
// its scorer and registering its live gauges on first sight, and
// returns the scorer. Hints already outstanding keep scoring against
// the model that issued them.
func (l *liveScore) setModel(name string) *modelScore {
	l.mu.Lock()
	ms := l.models[name]
	if ms == nil {
		ms = newModelScore(name, l.win)
		l.models[name] = ms
		l.registerModelGauges(ms)
	}
	l.mu.Unlock()
	l.current.Store(ms)
	return ms
}

// registerModelGauges exposes one model's live §2.3 metrics. Gauges
// are evaluated at scrape time over the live window, so they roll with
// traffic instead of averaging over the process lifetime.
func (l *liveScore) registerModelGauges(ms *modelScore) {
	model := obs.Label{Name: "model", Value: ms.name}
	l.reg.GaugeFunc("pbppm_live_precision",
		"Rolling-window prefetch precision by model and popularity grade (grade=all aggregates).",
		func() float64 { return ms.score.Window(l.span).Precision() },
		model, obs.Label{Name: "grade", Value: "all"})
	for g := 0; g <= int(popularity.MaxGrade); g++ {
		g := g
		l.reg.GaugeFunc("pbppm_live_precision",
			"Rolling-window prefetch precision by model and popularity grade (grade=all aggregates).",
			func() float64 {
				fetched := ms.fetched[g].Sum(l.span)
				if fetched == 0 {
					return 0
				}
				return float64(ms.hits[g].Sum(l.span)) / float64(fetched)
			},
			model, obs.Label{Name: "grade", Value: strconv.Itoa(g)})
	}
	l.reg.GaugeFunc("pbppm_live_hit_ratio",
		"Rolling-window hit ratio by model: (cache hits + prefetch hits) / requests.",
		func() float64 { return ms.score.Window(l.span).HitRatio() },
		model)
	l.reg.GaugeFunc("pbppm_live_traffic_increase",
		"Rolling-window traffic increase by model: transferred/useful bytes - 1.",
		func() float64 { return ms.score.Window(l.span).TrafficIncrease() },
		model)
}

// scorer returns the scorer of the model that issued a hint, falling
// back to the current model when the issuer is unknown (nil).
func (l *liveScore) scorer(issuer *modelScore) *modelScore {
	if issuer != nil {
		return issuer
	}
	return l.current.Load()
}

// emit counts the event and forwards it to the configured listener.
// ev.Grade comes from gradeOf, so it indexes the counters in range.
func (l *liveScore) emit(ev HintEvent) {
	l.events[ev.Type][ev.Grade].Inc()
	if l.onEvent != nil {
		l.onEvent(ev)
	}
}

// The methods below take the request's one clock reading: at files
// rolling-window writes, and now, the same reading as a server stamp,
// dates hint events against their records' issue stamps.

// demand scores one demand request against the current model.
func (l *liveScore) demand(at time.Time, size int64, o quality.Outcome) {
	if ms := l.current.Load(); ms != nil {
		ms.score.Demand(at, size, o)
	}
}

// observeLatency feeds the rolling demand-latency histogram.
func (l *liveScore) observeLatency(at time.Time, d time.Duration) {
	l.demandLatency.Observe(at, d)
}

// prefetched scores one hint-driven transfer against the model that
// issued the hint (nil for unhinted prefetch fetches).
func (l *liveScore) prefetched(at time.Time, model *modelScore, size int64) {
	if ms := l.scorer(model); ms != nil {
		ms.score.Prefetched(at, size)
	}
}

// fetchedHint marks a hint's first prefetch fetch: the per-grade
// denominator and the Fetched lifecycle event.
func (l *liveScore) fetchedHint(client string, rec hintRecord, at time.Time, now int64) {
	grade := l.gradeOf(rec.url)
	if ms := l.scorer(rec.model); ms != nil {
		ms.fetched[grade].Inc(at)
	}
	l.emit(HintEvent{
		Type: HintFetched, Client: client, URL: rec.url, Model: rec.model.modelName(),
		Grade: grade, Probability: rec.prob, Age: time.Duration(now - rec.issued),
	})
}

// hit scores a confirmed prediction. served reports whether the
// prefetched copy actually served the request (a client report) — only
// then does the scorer count a prefetch hit; a demand re-fetch of a
// hinted URL confirms the prediction without the byte savings.
func (l *liveScore) hit(client string, rec hintRecord, size int64, served bool, at time.Time, now int64) {
	grade := l.gradeOf(rec.url)
	ms := l.scorer(rec.model)
	if ms != nil {
		if served {
			ms.score.Demand(at, size, quality.PrefetchHit)
		}
		ms.hits[grade].Inc(at)
	}
	l.emit(HintEvent{
		Type: HintHit, Client: client, URL: rec.url, Model: rec.model.modelName(),
		Grade: grade, Probability: rec.prob, Age: time.Duration(now - rec.issued),
	})
}

// wasted emits the end-of-life event for a fetched-but-never-hit hint.
func (l *liveScore) wasted(client string, rec hintRecord, now int64) {
	l.emit(HintEvent{
		Type: HintWasted, Client: client, URL: rec.url, Model: rec.model.modelName(),
		Grade: l.gradeOf(rec.url), Probability: rec.prob, Age: time.Duration(now - rec.issued),
	})
}

// issued emits one Issued event per hint model attached to a response.
func (l *liveScore) issued(client string, model *modelScore, hints []markov.Prediction) {
	for _, h := range hints {
		l.emit(HintEvent{
			Type: HintIssued, Client: client, URL: h.URL, Model: model.modelName(),
			Grade: l.gradeOf(h.URL), Probability: h.Probability,
		})
	}
}

// windowSnapshot aggregates every model's rolling window (zero span
// selects the ring's full span).
func (l *liveScore) windowSnapshot(span time.Duration) quality.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s quality.Snapshot
	for _, ms := range l.models {
		s = s.Add(ms.score.Window(span))
	}
	return s
}

// totalSnapshot aggregates every model's cumulative totals.
func (l *liveScore) totalSnapshot() quality.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s quality.Snapshot
	for _, ms := range l.models {
		s = s.Add(ms.score.Total())
	}
	return s
}

// QualityTotal returns the cumulative live quality snapshot across all
// models — the online counterpart of a sim.Run result.
func (s *Server) QualityTotal() quality.Snapshot { return s.live.totalSnapshot() }

// QualityWindow returns the live quality snapshot over the trailing
// span (zero selects the full ring span).
func (s *Server) QualityWindow(span time.Duration) quality.Snapshot {
	return s.live.windowSnapshot(span)
}

// SetGrader publishes the popularity grader used to grade hint-event
// URLs; the maintenance loop calls this with each rebuild's ranking. A
// grade outside [0, popularity.MaxGrade] counts as the nearer bound.
func (s *Server) SetGrader(g popularity.Grader) { s.live.setGrader(g) }

// BindSLIs wires the server's live signals into an SLO engine:
// "latency" (demand requests under threshold), "precision" (prefetch
// hits over prefetched documents), and "hit_ratio" (hits over
// requests), all evaluated over the engine's rolling windows.
func (s *Server) BindSLIs(e *obs.SLOEngine) {
	BindSLIsOf(e, func() []*Server { return []*Server{s} })
}

// BindSLIsOf binds the three SLIs of Server.BindSLIs, each summed over
// the servers that servers returns when the engine evaluates it.
func BindSLIsOf(e *obs.SLOEngine, servers func() []*Server) {
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		var good, total int64
		for _, s := range servers() {
			g, t := s.live.demandLatency.GoodTotal(span, threshold)
			good, total = good+g, total+t
		}
		return float64(good), float64(total)
	})
	window := func(span time.Duration) quality.Snapshot {
		var snap quality.Snapshot
		for _, s := range servers() {
			snap = snap.Add(s.live.windowSnapshot(span))
		}
		return snap
	}
	e.Bind("precision", func(_, span time.Duration) (float64, float64) {
		snap := window(span)
		return float64(snap.PrefetchHits), float64(snap.PrefetchedDocs)
	})
	e.Bind("hit_ratio", func(_, span time.Duration) (float64, float64) {
		snap := window(span)
		return float64(snap.CacheHits + snap.PrefetchHits), float64(snap.Requests)
	})
}
