package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerSamplesEveryN(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 2) // every second call
	recorded := 0
	for i := 0; i < 10; i++ {
		span := tr.Start()
		if span.Active() {
			recorded++
			span.Mark(StageSession)
			span.Mark(StagePredict)
			span.Finish("c1", "/a")
		}
	}
	if recorded != 5 {
		t.Errorf("sampled %d of 10 calls, want 5", recorded)
	}
	if got := tr.sampled.Value(); got != 5 {
		t.Errorf("sampled counter = %d, want 5", got)
	}
	if got := tr.stages[StagePredict].Count(); got != 5 {
		t.Errorf("predict-stage histogram count = %d, want 5", got)
	}
	if got := len(tr.Recent()); got != 5 {
		t.Errorf("Recent() returned %d traces, want 5", got)
	}
}

// TestTracerDisabledAndNil verifies the hot-path contract: spans from a
// disabled or nil tracer are inert and never allocate trace state.
func TestTracerDisabledAndNil(t *testing.T) {
	tr := NewTracer(nil, 0)
	span := tr.Start()
	if span.Active() {
		t.Error("disabled tracer returned an active span")
	}
	span.Mark(StageSession)
	span.Finish("c", "/x") // must be a no-op, not a panic
	if got := len(tr.Recent()); got != 0 {
		t.Errorf("disabled tracer recorded %d traces", got)
	}

	var nilTr *Tracer
	span = nilTr.Start()
	if span.Active() {
		t.Error("nil tracer returned an active span")
	}
	span.Mark(StagePredict)
	span.Finish("c", "/x")
}

func TestTracerRingNewestFirstAndBounded(t *testing.T) {
	tr := NewTracer(nil, 1)
	for i := 0; i < traceRingSize+5; i++ {
		span := tr.Start()
		span.Finish("c", "/x")
	}
	got := tr.Recent()
	if len(got) != traceRingSize {
		t.Fatalf("ring holds %d, want %d", len(got), traceRingSize)
	}
}

// TestTracerBoundedUnderSustainedLoad is the regression test for the
// tracer's explicit bounds: sustained concurrent tracing must neither
// grow the ring beyond TraceRingCap nor break the exact 1-in-N
// sampled-rate contract, and the /debug/traces handler output stays
// bounded with it.
func TestTracerBoundedUnderSustainedLoad(t *testing.T) {
	const (
		every      = 8
		goroutines = 4
		perG       = 4000
	)
	tr := NewTracer(NewRegistry(), every)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				span := tr.Start()
				if span.Active() {
					span.Mark(StagePredict)
					span.Finish("c", "/load")
				}
				if i%512 == 0 {
					_ = tr.Recent() // concurrent readers must not unbound the ring
				}
			}
		}()
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if got := tr.Sampled(); got != total/every {
		t.Errorf("sampled %d of %d calls, want exactly %d (1 in %d)",
			got, total, total/every, every)
	}
	if got := len(tr.Recent()); got != TraceRingCap {
		t.Errorf("ring holds %d after sustained load, want exactly the %d cap", got, TraceRingCap)
	}

	rec := httptest.NewRecorder()
	tr.TracesHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	lines := strings.Count(rec.Body.String(), "\n")
	if lines != TraceRingCap {
		t.Errorf("/debug/traces rendered %d lines, want %d", lines, TraceRingCap)
	}
}

func TestSpanStageAttribution(t *testing.T) {
	tr := NewTracer(nil, 1)
	span := tr.Start()
	time.Sleep(2 * time.Millisecond)
	span.Mark(StagePredict)
	span.Finish("c", "/x")
	rec := tr.Recent()[0]
	if rec.Stages[StagePredict] <= 0 {
		t.Error("predict stage has no attributed time")
	}
	if rec.Total < rec.Stages[StagePredict] {
		t.Errorf("total %v < predict stage %v", rec.Total, rec.Stages[StagePredict])
	}
}
