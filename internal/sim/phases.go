package sim

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The named phases of an offline experiment run. A slow reproduction
// should say *where* it was slow: building the synthetic workload,
// training the models, replaying the test window, or rendering the
// report.
const (
	PhaseWorkloadBuild = "workload_build"
	PhaseTrain         = "train"
	PhaseSimulate      = "simulate"
	PhaseReport        = "report"
)

// PhaseClock accumulates wall time per named phase of an experiment
// run and counts replayed events. One clock scopes one experiment:
// cmd/reproduce creates a fresh clock per figure so phase totals do not
// bleed between records.
//
// All methods are safe on a nil *PhaseClock (they do nothing), so
// instrumented code needs no "is timing on?" branches — the same
// contract the obs constructors follow. A non-nil clock is safe for
// concurrent use.
type PhaseClock struct {
	mu     sync.Mutex
	totals map[string]time.Duration
	events atomic.Int64
}

// NewPhaseClock returns an empty clock.
func NewPhaseClock() *PhaseClock {
	return &PhaseClock{totals: make(map[string]time.Duration)}
}

// Observe adds one measured duration to a phase.
func (c *PhaseClock) Observe(phase string, d time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.totals[phase] += d
	c.mu.Unlock()
}

// Start begins timing a phase and returns the function that stops the
// measurement and records it.
func (c *PhaseClock) Start(phase string) (stop func()) {
	if c == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { c.Observe(phase, time.Since(t0)) }
}

// Time measures f under the named phase.
func (c *PhaseClock) Time(phase string, f func()) {
	defer c.Start(phase)()
	f()
}

// AddEvents counts replayed page views toward the clock's event total;
// Run calls it once per replay.
func (c *PhaseClock) AddEvents(n int64) {
	if c != nil {
		c.events.Add(n)
	}
}

// Events returns the accumulated event count.
func (c *PhaseClock) Events() int64 {
	if c == nil {
		return 0
	}
	return c.events.Load()
}

// Total returns the accumulated wall time of one phase.
func (c *PhaseClock) Total(phase string) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[phase]
}

// Totals returns a copy of all phase totals.
func (c *PhaseClock) Totals() map[string]time.Duration {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]time.Duration, len(c.totals))
	for k, v := range c.totals {
		out[k] = v
	}
	return out
}

// String renders the totals compactly ("train 1.2s, simulate 3.4s"),
// phases sorted by name, for progress logs.
func (c *PhaseClock) String() string {
	totals := c.Totals()
	phases := make([]string, 0, len(totals))
	for p := range totals {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	var sb strings.Builder
	for i, p := range phases {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p)
		sb.WriteByte(' ')
		sb.WriteString(totals[p].Round(time.Millisecond).String())
	}
	return sb.String()
}
