package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(
		"name=demand-latency,kind=latency,threshold=200ms,target=0.99; kind=precision,target=0.3")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	if objs[0].Name != "demand-latency" || objs[0].Kind != "latency" ||
		objs[0].Threshold != 200*time.Millisecond || objs[0].Target != 0.99 {
		t.Fatalf("objective 0 = %+v", objs[0])
	}
	if objs[1].name() != "precision" {
		t.Fatalf("objective 1 default name = %q, want kind", objs[1].name())
	}
}

func TestParseObjectivesFileGrammar(t *testing.T) {
	objs, err := ParseObjectives("# comment line\nkind=latency,threshold=1s,target=0.5\n\nkind=hit_ratio,target=0.2\n")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
}

func TestParseObjectivesErrors(t *testing.T) {
	for _, bad := range []string{
		"kind=latency,target=0.99",          // latency without threshold
		"kind=precision,target=1.5",         // target out of range
		"kind=precision,target=0",           // target at lower edge
		"target=0.5",                        // missing kind
		"kind=latency,threshold=200ms,nope", // not key=value
		"kind=latency,threshold=xyz,target=0.9",
		"kind=latency,threshold=200ms,target=0.9,color=red",                   // unknown field
		"kind=precision,target=0.3,window=abc",                                // malformed window duration
		"kind=precision,target=0.3,window=-5m",                                // negative window
		"kind=precision,target=0.3,window=0s",                                 // zero window
		"kind=precision,target=0.3; kind=precision,target=0.5",                // duplicate default names
		"name=a,kind=precision,target=0.3; name=a,kind=hit_ratio,target=0.5",  // duplicate explicit names
		"name=precision,kind=precision,target=0.3; kind=precision,target=0.5", // explicit collides with default
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted invalid input", bad)
		}
	}
}

func TestParseObjectivesWindowOverride(t *testing.T) {
	objs, err := ParseObjectives("kind=precision,target=0.3,window=10m")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	if objs[0].Window != 10*time.Minute {
		t.Fatalf("window = %v, want 10m", objs[0].Window)
	}
	// Same kind under distinct names is legal; both evaluate under their
	// own short window.
	objs, err = ParseObjectives("name=fast,kind=latency,threshold=50ms,target=0.9,window=1m;" +
		"name=slow,kind=latency,threshold=50ms,target=0.9")
	if err != nil {
		t.Fatalf("ParseObjectives: %v", err)
	}
	e := NewSLOEngine(objs)
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		return 100, 100
	})
	rep := e.Evaluate()
	if got := rep.Objectives[0].Windows[0].Span; got != "1m0s" {
		t.Fatalf("fast objective short window = %q, want 1m0s", got)
	}
	if got := rep.Objectives[1].Windows[0].Span; got != "5m0s" {
		t.Fatalf("slow objective short window = %q, want engine default 5m0s", got)
	}
	// A per-objective window never exceeds the long window the SLI rings
	// are sized for.
	e2 := NewSLOEngine([]Objective{{Kind: "latency", Threshold: time.Second, Target: 0.9, Window: 2 * time.Hour}})
	e2.Bind("latency", func(threshold, span time.Duration) (float64, float64) { return 1, 1 })
	if got := e2.Evaluate().Objectives[0].Windows[0].Span; got != "1h0m0s" {
		t.Fatalf("oversized window clamped to %q, want 1h0m0s", got)
	}
}

// TestSLONoDataRecovers drives a latency SLI through the lifecycle an
// idle-then-busy server produces: traffic, then a gap long enough that
// every rolling bucket ages out (no_data), then traffic again (ok).
func TestSLONoDataRecovers(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	hist := NewRollingHistogram(Window{Span: time.Hour, Granularity: 10 * time.Second, Clock: clock}, nil)

	e := NewSLOEngine([]Objective{{Name: "lat", Kind: "latency", Threshold: 100 * time.Millisecond, Target: 0.9}})
	e.SetClock(clock)
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		good, total := hist.GoodTotal(span, threshold)
		return float64(good), float64(total)
	})

	state := func() string { return e.Evaluate().Objectives[0].State }

	if got := state(); got != SLOStateNoData {
		t.Fatalf("pre-traffic state = %q, want no_data", got)
	}
	for i := 0; i < 100; i++ {
		hist.Observe(now, 10*time.Millisecond)
	}
	if got := state(); got != SLOStateOK {
		t.Fatalf("under traffic state = %q, want ok", got)
	}

	// Idle past the long window: every bucket ages out of both spans.
	now = now.Add(2 * time.Hour)
	if got := state(); got != SLOStateNoData {
		t.Fatalf("post-idle state = %q, want no_data", got)
	}

	// Traffic resumes: the engine recovers to ok without any reset call.
	for i := 0; i < 50; i++ {
		hist.Observe(now, 10*time.Millisecond)
	}
	if got := state(); got != SLOStateOK {
		t.Fatalf("resumed state = %q, want ok", got)
	}

	// And a resumed burst of bad latency is judged on its own: the
	// short window sees only the new observations.
	now = now.Add(2 * time.Hour)
	for i := 0; i < 50; i++ {
		hist.Observe(now, 5*time.Second)
	}
	if got := state(); got != SLOStateCritical {
		t.Fatalf("resumed-bad state = %q, want critical", got)
	}
}

func TestSLOEngineStates(t *testing.T) {
	objs := []Objective{{Name: "lat", Kind: "latency", Threshold: 100 * time.Millisecond, Target: 0.9}}
	e := NewSLOEngine(objs)

	// No source bound: no data.
	if st := e.Evaluate().Objectives[0]; st.State != SLOStateNoData {
		t.Fatalf("unbound state = %q, want no_data", st.State)
	}

	var good, total float64
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) {
		return good, total
	})

	// No traffic: still no data.
	if st := e.Evaluate().Objectives[0]; st.State != SLOStateNoData {
		t.Fatalf("no-traffic state = %q, want no_data", st.State)
	}

	// 99% good against a 90% target: ok, burn rate 0.1.
	good, total = 99, 100
	st := e.Evaluate().Objectives[0]
	if st.State != SLOStateOK {
		t.Fatalf("state = %q, want ok", st.State)
	}
	if b := st.Windows[0].BurnRate; b < 0.09 || b > 0.11 {
		t.Fatalf("burn rate = %v, want ~0.1", b)
	}

	// 85% good: burning (burn 1.5).
	good, total = 85, 100
	if st := e.Evaluate().Objectives[0]; st.State != SLOStateBurning {
		t.Fatalf("state = %q, want burning", st.State)
	}

	// 50% good: critical in both windows (burn 5).
	good, total = 50, 100
	if st := e.Evaluate().Objectives[0]; st.State != SLOStateCritical {
		t.Fatalf("state = %q, want critical", st.State)
	}
}

func TestSLOHandlerAndMetrics(t *testing.T) {
	objs, err := ParseObjectives("name=lat,kind=latency,threshold=100ms,target=0.9")
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEngine(objs)
	e.Bind("latency", func(threshold, span time.Duration) (float64, float64) { return 95, 100 })
	ann := NewAnnotations()
	ann.Add("compaction", "model=PB-PPM nodes=42")
	e.SetAnnotations(ann)

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	var rep SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("decoding /debug/slo: %v\n%s", err, rec.Body.String())
	}
	if len(rep.Objectives) != 1 || rep.Objectives[0].State != SLOStateOK {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Objectives[0].Windows) != 2 {
		t.Fatalf("windows = %d, want 2 (short and long)", len(rep.Objectives[0].Windows))
	}
	if len(rep.Annotations) != 1 || rep.Annotations[0].Kind != "compaction" {
		t.Fatalf("annotations = %+v", rep.Annotations)
	}

	reg := NewRegistry()
	e.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("slo exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		`pbppm_slo_compliance{objective="lat",window="5m0s"} 0.95`,
		`pbppm_slo_burn_rate{objective="lat",window="1h0m0s"}`,
		`pbppm_slo_state{objective="lat"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestAnnotationsRingBounded(t *testing.T) {
	a := NewAnnotations()
	for i := 0; i < annotationRingCap*3; i++ {
		a.Add("delta_merge", "")
	}
	if got := len(a.Recent()); got != annotationRingCap {
		t.Fatalf("ring holds %d, want cap %d", got, annotationRingCap)
	}
	// Nil ring: no-ops.
	var nilRing *Annotations
	nilRing.Add("x", "y")
	if nilRing.Recent() != nil {
		t.Fatal("nil ring returned annotations")
	}
}
