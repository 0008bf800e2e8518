package loadgen

import (
	"fmt"
	"testing"
	"time"

	"pbppm/internal/obs"
)

// scripted builds a trial function from a verdict table keyed by RPS
// and records the probe order. Unknown rates fail the test: every edge
// case below asserts the exact trial sequence the search takes.
type scripted struct {
	t       *testing.T
	verdict map[float64]Trial
	probed  []float64
}

func (s *scripted) trial(rps float64) (Trial, error) {
	s.probed = append(s.probed, rps)
	tr, ok := s.verdict[rps]
	if !ok {
		s.t.Fatalf("unscripted trial at %v rps (probed %v)", rps, s.probed)
	}
	tr.RPS = rps
	return tr, nil
}

func pass() Trial { return Trial{Pass: true, Reason: "scripted pass"} }

// failLatency fails the gate with an empty lag snapshot, so the search
// reads it as a server failure, not generator exhaustion.
func failLatency() Trial { return Trial{Reason: "scripted latency fail"} }

// failLagged fails the gate with a lag distribution over gate.MaxLag:
// the generator itself missed the schedule, so the trial says nothing
// about the server.
func failLagged(gate Gate) Trial {
	h := obs.NewHistogram(LoadLatencyBounds)
	for i := 0; i < 100; i++ {
		h.Observe(gate.MaxLag * 4)
	}
	return Trial{Reason: "scripted lag fail", Result: SlotResult{Lag: h.Snapshot()}}
}

func gateWithCap(cap float64) Gate {
	return Gate{MaxRPS: cap}.withDefaults()
}

// A starting rate above the cap is clamped: the first (and only
// passing) trial runs at the cap itself, and passing there is
// CeilingReached — the true capacity is at least the cap.
func TestFindMaxClampsStartAboveCap(t *testing.T) {
	gate := gateWithCap(60)
	s := &scripted{t: t, verdict: map[float64]Trial{60: pass()}}
	res, err := findMax(100, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.probed) != 1 || s.probed[0] != 60 {
		t.Errorf("probed %v, want exactly the clamped cap [60]", s.probed)
	}
	if !res.CeilingReached || res.GeneratorLimited || res.MaxSustainableRPS != 60 {
		t.Errorf("result = %+v, want ceiling at 60", res)
	}
	if len(res.Trials) != 1 || res.Trials[0].RPS != 60 {
		t.Errorf("trials = %+v", res.Trials)
	}
}

// A clamped first trial that fails reports zero capacity: nothing below
// the caller's floor is probed.
func TestFindMaxClampedStartFailing(t *testing.T) {
	gate := gateWithCap(60)
	s := &scripted{t: t, verdict: map[float64]Trial{60: failLatency()}}
	res, err := findMax(100, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSustainableRPS != 0 || res.CeilingReached || res.GeneratorLimited {
		t.Errorf("result = %+v, want zero capacity", res)
	}
	if len(s.probed) != 1 {
		t.Errorf("probed %v, want a single failing trial", s.probed)
	}
}

// Doubling that lands on the cap and passes there stops as
// CeilingReached even though no trial ever failed.
func TestFindMaxPassAtCapAfterDoubling(t *testing.T) {
	gate := gateWithCap(60)
	s := &scripted{t: t, verdict: map[float64]Trial{
		25: pass(),
		50: pass(),
		60: pass(), // 100 clamps to the cap
	}}
	res, err := findMax(25, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{25, 50, 60}
	if fmt.Sprint(s.probed) != fmt.Sprint(want) {
		t.Errorf("probed %v, want %v", s.probed, want)
	}
	if !res.CeilingReached || res.MaxSustainableRPS != 60 {
		t.Errorf("result = %+v, want ceiling at 60", res)
	}
}

// A generator-limited trial mid-bisection stops the search keeping the
// last passing rate: the verdict is about the generator, not the
// server, so bisecting further would report noise as capacity.
func TestFindMaxGeneratorLimitedMidBisect(t *testing.T) {
	gate := Gate{}.withDefaults()
	s := &scripted{t: t, verdict: map[float64]Trial{
		10: pass(),
		20: failLatency(),    // brackets [10, 20]
		15: failLagged(gate), // bisection probe exhausts the generator
	}}
	res, err := findMax(10, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 15}
	if fmt.Sprint(s.probed) != fmt.Sprint(want) {
		t.Errorf("probed %v, want %v", s.probed, want)
	}
	if !res.GeneratorLimited || res.CeilingReached {
		t.Errorf("result = %+v, want generator-limited", res)
	}
	if res.MaxSustainableRPS != 10 {
		t.Errorf("MaxSustainableRPS = %v, want the last pass 10", res.MaxSustainableRPS)
	}
}

// Generator exhaustion during the doubling phase stops the search the
// same way.
func TestFindMaxGeneratorLimitedWhileDoubling(t *testing.T) {
	gate := Gate{}.withDefaults()
	s := &scripted{t: t, verdict: map[float64]Trial{
		10: pass(),
		20: failLagged(gate),
	}}
	res, err := findMax(10, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	if !res.GeneratorLimited || res.MaxSustainableRPS != 10 {
		t.Errorf("result = %+v, want generator-limited at 10", res)
	}
}

// The normal path: doubling brackets a failure, bisection narrows the
// bracket to within 10% and reports the highest passing rate.
func TestFindMaxBisectsToWithinTenPercent(t *testing.T) {
	gate := Gate{}.withDefaults()
	s := &scripted{t: t, verdict: map[float64]Trial{
		10:   pass(),
		20:   pass(),
		40:   failLatency(), // brackets [20, 40]
		30:   pass(),        // [30, 40]
		35:   pass(),        // [35, 40]
		37.5: pass(),        // [37.5, 40] -> 40/37.5 < 1.10, stop
	}}
	res, err := findMax(10, gate, s.trial)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxSustainableRPS != 37.5 || res.GeneratorLimited || res.CeilingReached {
		t.Errorf("result = %+v, want clean convergence at 37.5", res)
	}
	if got := len(res.Trials); got != len(s.probed) {
		t.Errorf("recorded %d trials, probed %d", got, len(s.probed))
	}
	// Every recorded trial carries the rate it probed, in order.
	for i, tr := range res.Trials {
		if tr.RPS != s.probed[i] {
			t.Errorf("trial %d recorded rps %v, probed %v", i, tr.RPS, s.probed[i])
		}
	}
}

func TestFindMaxRejectsNonPositiveStart(t *testing.T) {
	g := &Generator{}
	if _, err := g.FindMax(nil, 0, time.Second, Gate{}); err == nil {
		t.Error("non-positive start accepted")
	}
}
