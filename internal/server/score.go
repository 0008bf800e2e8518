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

// numGrades is the number of popularity grades, 0 through MaxGrade.
const numGrades = int(popularity.MaxGrade) + 1

// modelScore is the live quality state for one prediction model: a
// windowed scorer, and the scorer's prefetched documents and prefetch
// hits split by popularity grade for the per-grade precision gauges.
// The per-grade ring counts grade g's prefetched documents in column g
// and its prefetch hits in column numGrades+g. index is the scorer's
// place in liveScore's scorers, which hint records name it by.
type modelScore struct {
	name   string
	index  uint32
	score  *quality.Scorer
	grades *obs.RollingCounts
}

// modelName names the scored model; a nil scorer (a record synthesized
// for an unmatched report) names none.
func (ms *modelScore) modelName() string {
	if ms == nil {
		return ""
	}
	return ms.name
}

func newModelScore(name string, index uint32, w obs.Window) *modelScore {
	return &modelScore{
		name:   name,
		index:  index,
		score:  quality.NewWindowedScorer(w),
		grades: obs.NewRollingCounts(w, 2*numGrades),
	}
}

// liveScore owns all live-quality state: per-model scorers, the
// lifecycle event counters, and the rolling demand-latency histogram.
// The serving paths touch only atomics (current-model load plus scorer
// adds; hint records carry their issuing model's scorer index); the
// mutex guards the model map, which changes only on model publishes.
type liveScore struct {
	reg     *obs.Registry
	win     obs.Window
	span    time.Duration // the "live" gauge span (Config.LiveWindow)
	onEvent func(HintEvent)
	urls    *urlTable // resolves hint records' URL ids

	grader  atomic.Pointer[graderCell]
	current atomic.Pointer[modelScore]
	// scorers lists every model's scorer by index, after a nil at index
	// 0 for records that name no model; it is replaced whole, under mu,
	// when a model name is first seen.
	scorers atomic.Pointer[[]*modelScore]

	mu     sync.Mutex
	models map[string]*modelScore

	events        [numHintEvents][numGrades]*obs.Counter
	demandLatency *obs.RollingHistogram
}

func newLiveScore(reg *obs.Registry, win obs.Window, span time.Duration, onEvent func(HintEvent), urls *urlTable) *liveScore {
	l := &liveScore{
		reg:           reg,
		win:           win,
		span:          span,
		onEvent:       onEvent,
		urls:          urls,
		models:        make(map[string]*modelScore),
		demandLatency: obs.NewRollingHistogram(win, nil),
	}
	l.scorers.Store(&[]*modelScore{nil})
	for t := 0; t < numHintEvents; t++ {
		for g := 0; g < numGrades; g++ {
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
		old := *l.scorers.Load()
		ms = newModelScore(name, uint32(len(old)), l.win)
		l.models[name] = ms
		scorers := append(old[:len(old):len(old)], ms)
		l.scorers.Store(&scorers)
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
	for g := 0; g < numGrades; g++ {
		g := g
		l.reg.GaugeFunc("pbppm_live_precision",
			"Rolling-window prefetch precision by model and popularity grade (grade=all aggregates).",
			func() float64 {
				sums := ms.grades.Sums(l.span)
				return quality.Snapshot{PrefetchedDocs: sums[g], PrefetchHits: sums[numGrades+g]}.Precision()
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

// model returns the scorer a hint record names by index: nil for index
// 0, a record that names no model.
func (l *liveScore) model(index uint32) *modelScore {
	return (*l.scorers.Load())[index]
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

// prefetched scores one prefetched document of the given grade
// against the model that issued its hint (nil for unhinted prefetch
// fetches).
func (l *liveScore) prefetched(at time.Time, model *modelScore, grade popularity.Grade, size int64) {
	if ms := l.scorer(model); ms != nil {
		ms.score.Prefetched(at, size)
		ms.grades.Row(at)[grade].Add(1)
	}
}

// recordEvent is the lifecycle event of type t for hint record rec,
// whose URL is url.
func (l *liveScore) recordEvent(t HintEventType, client string, rec hintRecord, url string, grade popularity.Grade, now int64) HintEvent {
	return HintEvent{
		Type: t, Client: client, URL: url, Model: l.model(rec.model).modelName(),
		Grade: grade, Probability: rec.prob, Age: time.Duration(now - rec.issued),
	}
}

// fetchedHint emits the Fetched lifecycle event for a hint's first
// prefetch fetch.
func (l *liveScore) fetchedHint(client string, rec hintRecord, url string, grade popularity.Grade, now int64) {
	l.emit(l.recordEvent(HintFetched, client, rec, url, grade, now))
}

// hit scores a confirmed prediction. served reports whether the
// prefetched copy actually served the request (a client report) — only
// then do the scorer and the hit's grade count a prefetch hit; a
// demand re-fetch of a hinted URL confirms the prediction without the
// byte savings.
func (l *liveScore) hit(client string, rec hintRecord, size int64, served bool, at time.Time, now int64) {
	url := l.urls.url(rec.url)
	grade := l.gradeOf(url)
	if ms := l.scorer(l.model(rec.model)); ms != nil && served {
		ms.score.Demand(at, size, quality.PrefetchHit)
		ms.grades.Row(at)[numGrades+int(grade)].Add(1)
	}
	l.emit(l.recordEvent(HintHit, client, rec, url, grade, now))
}

// wasted emits the end-of-life event for a fetched-but-never-hit hint.
func (l *liveScore) wasted(client string, rec hintRecord, now int64) {
	url := l.urls.url(rec.url)
	l.emit(l.recordEvent(HintWasted, client, rec, url, l.gradeOf(url), now))
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
