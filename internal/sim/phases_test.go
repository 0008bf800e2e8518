package sim

import (
	"strings"
	"testing"
	"time"

	"pbppm/internal/session"
)

func TestPhaseClockAccumulates(t *testing.T) {
	c := NewPhaseClock()
	c.Observe(PhaseTrain, 100*time.Millisecond)
	c.Observe(PhaseTrain, 50*time.Millisecond)
	c.Observe(PhaseSimulate, 10*time.Millisecond)
	c.AddEvents(7)

	if got := c.Total(PhaseTrain); got != 150*time.Millisecond {
		t.Errorf("Total(train) = %v, want 150ms", got)
	}
	if got := c.Events(); got != 7 {
		t.Errorf("Events = %d, want 7", got)
	}
	totals := c.Totals()
	if len(totals) != 2 {
		t.Errorf("Totals has %d phases, want 2: %v", len(totals), totals)
	}
	s := c.String()
	if !strings.Contains(s, PhaseTrain) || !strings.Contains(s, PhaseSimulate) {
		t.Errorf("String() = %q missing phase names", s)
	}
}

func TestPhaseClockNilSafe(t *testing.T) {
	var c *PhaseClock
	c.Observe(PhaseTrain, time.Second)
	c.Time(PhaseReport, func() {})
	c.Start(PhaseSimulate)()
	c.AddEvents(3)
	if c.Events() != 0 || c.Total(PhaseTrain) != 0 || c.Totals() != nil {
		t.Error("nil PhaseClock recorded something")
	}
}

// TestRunRecordsSimulatePhase: Run must charge the replay to
// PhaseSimulate, count its events, and stamp Progress.Phase.
func TestRunRecordsSimulatePhase(t *testing.T) {
	sizes := map[string]int64{"/a": 1000, "/b": 1000}
	test := []session.Session{mkSession("c1", 0, sizes, "/a", "/b")}

	clock := NewPhaseClock()
	var phases []string
	Run(test, Options{
		Sizes:         sizes,
		Phases:        clock,
		ProgressEvery: 1,
		OnProgress:    func(p Progress) { phases = append(phases, p.Phase) },
	})

	if clock.Events() != 2 {
		t.Errorf("Events = %d, want 2", clock.Events())
	}
	if clock.Total(PhaseSimulate) <= 0 {
		t.Errorf("Total(simulate) = %v, want > 0", clock.Total(PhaseSimulate))
	}
	for _, p := range phases {
		if p != PhaseSimulate {
			t.Errorf("Progress.Phase = %q, want %q", p, PhaseSimulate)
		}
	}
}
