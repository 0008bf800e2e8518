package obs

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage is one step of the predict hot path, in execution order.
type Stage int

const (
	// StageSession covers client-session lookup and bookkeeping under
	// the context-shard lock.
	StageSession Stage = iota
	// StageContext covers context-tail snapshot assembly and
	// ended-session hand-off.
	StageContext
	// StagePredict covers the model's Predict call.
	StagePredict
	// StageHints covers hint filtering and encoding.
	StageHints

	numStages
)

// String names the stage for metric labels and trace rendering.
func (s Stage) String() string {
	switch s {
	case StageSession:
		return "session"
	case StageContext:
		return "context"
	case StagePredict:
		return "predict"
	default:
		return "hints"
	}
}

// TraceRingCap is the explicit bound on the recent-trace ring: the
// tracer retains at most this many sampled records, oldest evicted
// first, so sustained tracing under load holds memory constant and
// /debug/traces output is bounded. 64 traces comfortably covers a
// debugging session while costing a few kilobytes.
const TraceRingCap = 64

// traceRingSize is the internal alias the ring arithmetic uses.
const traceRingSize = TraceRingCap

// TraceRecord is one sampled predict-path execution.
type TraceRecord struct {
	Client string
	URL    string
	Stages [4]time.Duration // indexed by Stage
	Total  time.Duration
}

// String renders the record as a one-line stage breakdown.
func (tr TraceRecord) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s total=%v", tr.Client, tr.URL, tr.Total)
	for st := StageSession; st < numStages; st++ {
		fmt.Fprintf(&sb, " %s=%v", st, tr.Stages[st])
	}
	return sb.String()
}

// Tracer samples predict-path executions: one in every N calls records
// per-stage timings into stage histograms and a ring of recent traces.
// When disabled (sample interval 0, or a nil *Tracer) Start is a
// single field read and the returned Span is inert — no clock reads,
// no allocation — so the serving hot path pays nothing.
type Tracer struct {
	every int64 // sampling interval, fixed by NewTracer; 0 disables
	seq   atomic.Int64

	stages  [numStages]*Histogram
	sampled *Counter

	mu     sync.Mutex
	recent [traceRingSize]TraceRecord
	next   int // ring write cursor
	filled int
}

// NewTracer returns a tracer sampling one in every `every` predict
// calls (0 disables sampling) and registers its per-stage histograms
// (pbppm_predict_stage_seconds) and sampled-trace counter in reg,
// which may be nil.
func NewTracer(reg *Registry, every int) *Tracer {
	t := &Tracer{every: int64(every)}
	for st := StageSession; st < numStages; st++ {
		t.stages[st] = reg.Histogram(
			"pbppm_predict_stage_seconds",
			"Sampled per-stage predict-path latency.",
			nil, Label{Name: "stage", Value: st.String()})
	}
	t.sampled = reg.Counter("pbppm_predict_traces_total",
		"Predict-path executions sampled by the tracer.")
	return t
}

// Start begins a span if this call is sampled. Safe on a nil tracer.
func (t *Tracer) Start() Span {
	if t == nil || t.every <= 0 {
		return Span{}
	}
	if t.seq.Add(1)%t.every != 0 {
		return Span{}
	}
	now := time.Now()
	return Span{t: t, start: now, last: now}
}

// Recent returns the sampled traces, newest first.
func (t *Tracer) Recent() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		out = append(out, t.recent[(t.next-1-i+2*traceRingSize)%traceRingSize])
	}
	return out
}

// Sampled reports how many predict-path executions the tracer has
// recorded (the exact 1-in-N subset of Start calls).
func (t *Tracer) Sampled() int64 { return t.sampled.Value() }

// TracesHandler serves the recent-trace ring as plain text, newest
// first — the /debug/traces endpoint. Output is bounded by
// TraceRingCap lines regardless of load.
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, rec := range t.Recent() {
			fmt.Fprintln(w, rec)
		}
	})
}

// Span accumulates one sampled predict-path execution. The zero Span
// is inert: every method is a nil check and nothing else, so
// unsampled calls stay allocation-free (Span is a stack value).
type Span struct {
	t      *Tracer
	start  time.Time
	last   time.Time
	stages [numStages]time.Duration
}

// Active reports whether this span is recording.
func (s Span) Active() bool { return s.t != nil }

// Mark attributes the time since the previous mark (or Start) to stage.
func (s *Span) Mark(stage Stage) {
	if s.t == nil {
		return
	}
	now := time.Now()
	s.stages[stage] += now.Sub(s.last)
	s.last = now
}

// Finish records the span into the tracer's histograms and recent-trace
// ring.
func (s *Span) Finish(client, url string) {
	if s.t == nil {
		return
	}
	t := s.t
	for st := StageSession; st < numStages; st++ {
		t.stages[st].Observe(s.stages[st])
	}
	t.sampled.Inc()
	rec := TraceRecord{
		Client: client,
		URL:    url,
		Stages: s.stages,
		Total:  time.Since(s.start),
	}
	t.mu.Lock()
	t.recent[t.next] = rec
	t.next = (t.next + 1) % traceRingSize
	if t.filled < traceRingSize {
		t.filled++
	}
	t.mu.Unlock()
}
