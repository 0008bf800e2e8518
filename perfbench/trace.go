package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbppm/internal/markov"
	"pbppm/internal/server"
	"pbppm/internal/session"
)

// The traced run wraps each layer's public seam from outside — the
// predictor handed to the server, the content store, the HTTP handler,
// the client's round tripper, and the maintainer calls — and records
// per-call samples plus, for one request in sampleEvery, a span tree.
// Nested calls find their request through a table keyed by the serving
// goroutine, which runs the handler and every call inside it.

const (
	// headerReq carries the round tripper's request id to the handler
	// wrapper, linking the two spans of one request across the hop.
	headerReq = "X-Bench-Req"
	// sampleEvery selects the requests whose whole span tree is kept.
	sampleEvery = 16
	// maxReqs bounds the per-request timing tables.
	maxReqs = 1 << 20
	// maxSpans bounds the in-memory span buffer.
	maxSpans = 1 << 18
	// slotBits sizes the goroutine-keyed table of traced requests in
	// flight.
	slotBits = 10
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused it (0 for none).
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// series is a fixed-capacity sample buffer that many goroutines append
// to without a lock.
type series struct {
	n atomic.Int64
	v []atomic.Int64
}

func newSeries(capacity int) *series { return &series{v: make([]atomic.Int64, capacity)} }

func (s *series) add(x int64) {
	if i := s.n.Add(1) - 1; i < int64(len(s.v)) {
		s.v[i].Store(x)
	}
}

// dist returns the recorded samples as durations.
func (s *series) dist() *dist {
	n := s.n.Load()
	if n > int64(len(s.v)) {
		n = int64(len(s.v))
	}
	d := &dist{v: make([]time.Duration, n)}
	for i := range d.v {
		d.v[i] = time.Duration(s.v[i].Load())
	}
	return d
}

// active is a traced request being served; nested layer calls on the
// same goroutine attribute their time (and, when sampled, their spans)
// to it.
type active struct {
	gid     uintptr
	req     uint64
	span    uint64
	sampled bool
	childNs int64 // touched only by the serving goroutine
}

// tracer holds everything a traced run records.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	reqSeq  atomic.Uint64
	spanSeq atomic.Uint64
	rtt     []atomic.Int64 // by request id: round trip, send to body read
	serve   []atomic.Int64 // by request id: handler time

	predictNs                  *series
	predictCalls, predictEmpty atomic.Int64
	predictCtxLen              atomic.Int64
	lookups, handled           atomic.Int64
	// selfNs is, per request, handler time minus the predict and
	// store time spent inside it.
	selfNs   *series
	inflight [1 << slotBits]atomic.Pointer[active]
	observes atomic.Int64

	mu           sync.Mutex
	spans        []span
	spansDropped int
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		rtt:       make([]atomic.Int64, maxReqs),
		serve:     make([]atomic.Int64, maxReqs),
		predictNs: newSeries(maxReqs),
		selfNs:    newSeries(maxReqs),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newSpanID returns a span id above the request-id range: a round-trip
// span's id is its request id.
func (t *tracer) newSpanID() uint64 { return 1<<40 + t.spanSeq.Add(1) }

func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.spansDropped++
	}
	t.mu.Unlock()
}

// slot returns the in-flight table entry for goroutine g.
func (t *tracer) slot(g uintptr) *atomic.Pointer[active] {
	return &t.inflight[(uint64(g)*0x9E3779B97F4A7C15)>>(64-slotBits)]
}

// child attributes a nested layer call to the traced request its
// goroutine is serving, if any.
func (t *tracer) child(name string, start, end int64) {
	g := getg()
	a := t.slot(g).Load()
	if a == nil || a.gid != g {
		return
	}
	a.childNs += end - start
	if a.sampled {
		t.addSpan(span{Name: name, Req: a.req, ID: t.newSpanID(), Parent: a.span, Start: start, End: end})
	}
}

// predictor wraps the model handed to the server.
func (t *tracer) predictor(p markov.Predictor) markov.Predictor {
	if p == nil {
		return nil
	}
	return &tracedPredictor{Predictor: p, t: t}
}

type tracedPredictor struct {
	markov.Predictor
	t *tracer
}

func (p *tracedPredictor) Predict(ctx []string) []markov.Prediction {
	return p.PredictInto(ctx, nil)
}

func (p *tracedPredictor) PredictInto(ctx []string, buf []markov.Prediction) []markov.Prediction {
	t := p.t
	if !t.on.Load() {
		return markov.PredictInto(p.Predictor, ctx, buf)
	}
	start := t.now()
	out := markov.PredictInto(p.Predictor, ctx, buf)
	end := t.now()
	t.predictNs.add(end - start)
	t.predictCalls.Add(1)
	t.predictCtxLen.Add(int64(len(ctx)))
	if len(out) == 0 {
		t.predictEmpty.Add(1)
	}
	t.child("core.predict", start, end)
	return out
}

// store wraps the content store.
func (t *tracer) store(s server.ContentStore) server.ContentStore {
	return tracedStore{s: s, t: t}
}

type tracedStore struct {
	s server.ContentStore
	t *tracer
}

func (s tracedStore) Lookup(url string) (server.Document, bool) {
	t := s.t
	if !t.on.Load() {
		return s.s.Lookup(url)
	}
	start := t.now()
	doc, ok := s.s.Lookup(url)
	t.lookups.Add(1)
	t.child("server.store", start, t.now())
	return doc, ok
}

// handler wraps the serving tier's http.Handler.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		a := &active{gid: getg(), req: id, span: t.newSpanID(), sampled: id%sampleEvery == 0}
		slot := t.slot(a.gid)
		slot.Store(a)
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		slot.CompareAndSwap(a, nil)
		t.handled.Add(1)
		t.selfNs.add(end - start - a.childNs)
		if id < maxReqs {
			t.serve[id].Store(end - start)
		}
		if a.sampled {
			t.addSpan(span{Name: "server.serve", Req: id, ID: a.span, Parent: id, Start: start, End: end})
		}
	})
}

// roundTripper wraps the client transport. It assigns the request id;
// the round trip ends when the client has read the whole body.
func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return next.RoundTrip(req)
		}
		id := t.reqSeq.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(headerReq, strconv.FormatUint(id, 10))
		start := t.now()
		resp, err := next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			end := t.now()
			if id < maxReqs {
				t.rtt[id].Store(end - start)
			}
			if id%sampleEvery == 0 {
				t.addSpan(span{Name: "http.round_trip", Req: id, ID: id, Start: start, End: end})
			}
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type timedBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// observe wraps Maintainer.Observe.
func (t *tracer) observe(fn func(session.Session)) func(session.Session) {
	return func(s session.Session) {
		start := t.now()
		fn(s)
		if t.observes.Add(1)%sampleEvery == 0 {
			t.addSpan(span{Name: "maintain.observe", ID: t.newSpanID(), Start: start, End: t.now()})
		}
	}
}

// maintCall times one Rebuild or DeltaMerge call and records its span.
func (t *tracer) maintCall(name string, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.addSpan(span{Name: name, ID: t.newSpanID(), Start: start, End: end})
	return time.Duration(end - start)
}

// writeSpans writes the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
