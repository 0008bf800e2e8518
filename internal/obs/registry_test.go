package obs

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistrationIsIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.", Label{Name: "kind", Value: "a"})
	b := reg.Counter("x_total", "X.", Label{Name: "kind", Value: "a"})
	if a != b {
		t.Error("re-registering the same counter returned a different instance")
	}
	c := reg.Counter("x_total", "X.", Label{Name: "kind", Value: "b"})
	if a == c {
		t.Error("different label sets shared one counter")
	}
}

func TestKindConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering one name as two kinds")
		}
	}()
	reg.Gauge("x_total", "X.")
}

// TestConflictingReRegistrationPanics: a second registration that
// disagrees with the family's help string or label-name set must fail
// loudly instead of silently returning the first metric.
func TestConflictingReRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}

	reg := NewRegistry()
	reg.Counter("y_total", "Original help.", Label{Name: "kind", Value: "a"})
	mustPanic("help conflict", func() {
		reg.Counter("y_total", "Different help.", Label{Name: "kind", Value: "a"})
	})
	mustPanic("label name conflict", func() {
		reg.Counter("y_total", "Original help.", Label{Name: "type", Value: "a"})
	})
	mustPanic("label arity conflict", func() {
		reg.Counter("y_total", "Original help.")
	})
	mustPanic("histogram help conflict", func() {
		reg2 := NewRegistry()
		reg2.Histogram("h_seconds", "H.", nil)
		reg2.Histogram("h_seconds", "H!", nil)
	})

	// Same name, help, and label names with a different label VALUE is
	// the supported family-member case and must keep working.
	if reg.Counter("y_total", "Original help.", Label{Name: "kind", Value: "b"}) == nil {
		t.Error("new label value within a family failed")
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	reg := NewRegistry()
	for name, f := range map[string]func(){
		"bad metric name": func() { reg.Counter("0bad", "X.") },
		"empty name":      func() { reg.Counter("", "X.") },
		"bad label name":  func() { reg.Counter("ok_total", "X.", Label{Name: "0bad", Value: "v"}) },
		"reserved label":  func() { reg.Counter("ok2_total", "X.", Label{Name: "__meta", Value: "v"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestNilRegistrySafe verifies the "observability off" contract: a nil
// registry hands out working metrics so instrumented code needs no
// branches.
func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "X.")
	c.Inc()
	if c.Value() != 1 {
		t.Error("nil-registry counter did not count")
	}
	g := reg.Gauge("x", "X.")
	g.Set(7)
	if g.Value() != 7 {
		t.Error("nil-registry gauge did not hold its value")
	}
	h := reg.Histogram("x_seconds", "X.", nil)
	h.Observe(time.Millisecond)
	if h.Count() != 1 {
		t.Error("nil-registry histogram did not count")
	}
}

func TestCounterIgnoresNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5 (negative Add must be ignored)", got)
	}
}

func TestAdminMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "X.").Inc()
	mux := NewAdminMux(reg)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/metrics"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("/metrics = %d %q", rec.Code, rec.Body.String())
	}
	if got := get("/metrics").Header().Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("/metrics content type = %q", got)
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz = %d", rec.Code)
	}
	if rec := get("/debug/pprof/cmdline"); rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", rec.Code)
	}
}

// TestScrapeWhileRegistering renders the exposition while another
// goroutine keeps registering series into the families being rendered,
// as a model install does during a /metrics scrape. Under -race it
// fails if rendering reads a family's entries outside the registry
// lock.
func TestScrapeWhileRegistering(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("race_total", "Race.", Label{Name: "i", Value: "0"})
	reg.GaugeFunc("race_gauge", "Race gauge.", func() float64 { return 1 }, Label{Name: "i", Value: "0"})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 500; i++ {
			v := Label{Name: "i", Value: strconv.Itoa(i)}
			reg.Counter("race_total", "Race.", v).Inc()
			reg.GaugeFunc("race_gauge", "Race gauge.", func() float64 { return 1 }, v)
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "race_total{"); n != 500 {
		t.Fatalf("final scrape shows %d race_total series, want 500", n)
	}
}
