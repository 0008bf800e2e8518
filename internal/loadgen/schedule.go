package loadgen

import (
	"fmt"
	"math"
	"time"
)

// Slot is one segment of a load scenario: a target arrival rate held
// for a duration, with optional workload perturbations.
type Slot struct {
	// Label names the slot in tables and artifacts ("warm", "rps50",
	// "burst", ...).
	Label string
	// RPS is the open-loop arrival rate: RPS*Duration requests are
	// dispatched on a fixed schedule across the slot, whether or not
	// earlier ones have completed.
	RPS float64
	// Duration is how long the slot holds its rate.
	Duration time.Duration
	// HeadShift slides the popular entry set down the popularity order
	// for sessions started in this slot — the flash-crowd head change.
	HeadShift int
	// ColdShare is the fraction of arrivals issued by never-seen
	// clients (fresh IDs, empty caches): a cold-start flood that makes
	// the server open a session per request.
	ColdShare float64
	// requests overrides the computed RPS*Duration count; tests use it.
	requests int
}

// Requests returns the number of arrivals the slot dispatches.
func (s Slot) Requests() int {
	if s.requests > 0 {
		return s.requests
	}
	n := int(math.Round(s.RPS * s.Duration.Seconds()))
	if n < 1 && s.RPS > 0 {
		n = 1
	}
	return n
}

// Interval returns the fixed inter-arrival spacing within the slot.
func (s Slot) Interval() time.Duration {
	n := s.Requests()
	if n <= 0 {
		return s.Duration
	}
	return s.Duration / time.Duration(n)
}

// Scenario is a named sequence of slots.
type Scenario struct {
	Name  string
	Slots []Slot
}

// validate rejects degenerate scenarios before the dispatcher starts.
func (sc Scenario) validate() error {
	if len(sc.Slots) == 0 {
		return fmt.Errorf("loadgen: scenario %q has no slots", sc.Name)
	}
	for i, s := range sc.Slots {
		if s.RPS < 0 || s.Duration <= 0 {
			return fmt.Errorf("loadgen: scenario %q slot %d: rps %v / duration %v invalid",
				sc.Name, i, s.RPS, s.Duration)
		}
		if s.ColdShare < 0 || s.ColdShare > 1 {
			return fmt.Errorf("loadgen: scenario %q slot %d: cold share %v outside [0,1]",
				sc.Name, i, s.ColdShare)
		}
	}
	return nil
}

// Steady holds one rate for a total duration, reported in slotDur
// chunks so drift over time is visible.
func Steady(rps float64, total, slotDur time.Duration) Scenario {
	sc := Scenario{Name: "steady"}
	for off := time.Duration(0); off < total; off += slotDur {
		d := slotDur
		if rem := total - off; rem < d {
			d = rem
		}
		sc.Slots = append(sc.Slots, Slot{
			Label:    fmt.Sprintf("t+%s", off.Round(time.Second)),
			RPS:      rps,
			Duration: d,
		})
	}
	return sc
}

// Sweep steps the rate from start to target (inclusive) in fixed
// increments, one slot per step — the capacity staircase. A
// non-positive step degenerates to a single slot at start.
func Sweep(start, step, target float64, slotDur time.Duration) Scenario {
	sc := Scenario{Name: "sweep"}
	if step <= 0 || target < start {
		target, step = start, 1
	}
	for rps := start; rps <= target+1e-9; rps += step {
		sc.Slots = append(sc.Slots, Slot{
			Label:    fmt.Sprintf("rps%g", rps),
			RPS:      rps,
			Duration: slotDur,
		})
	}
	return sc
}

// Burst models a flash crowd: warm slots at the base rate, then a
// burst at mult× the base with the popular head shifted and a cold
// client flood, then recovery back at the base rate (still on the
// shifted head — the crowd does not leave when the spike ends, so the
// recovery slots show whether maintenance re-learned the new heads).
func Burst(base, mult float64, slotDur time.Duration, headShift int, coldShare float64) Scenario {
	if mult < 1 {
		mult = 1
	}
	return Scenario{Name: "burst", Slots: []Slot{
		{Label: "warm1", RPS: base, Duration: slotDur},
		{Label: "warm2", RPS: base, Duration: slotDur},
		{Label: "burst1", RPS: base * mult, Duration: slotDur, HeadShift: headShift, ColdShare: coldShare},
		{Label: "burst2", RPS: base * mult, Duration: slotDur, HeadShift: headShift, ColdShare: coldShare},
		{Label: "recover1", RPS: base, Duration: slotDur, HeadShift: headShift},
		{Label: "recover2", RPS: base, Duration: slotDur, HeadShift: headShift},
	}}
}

// Diurnal samples one sine-shaped day compressed into slots×slotDur:
// rate swings between trough and peak with the trough first, the
// compressed analogue of tracegen's overnight-to-afternoon curve.
func Diurnal(peak float64, slots int, slotDur time.Duration) Scenario {
	if slots < 2 {
		slots = 2
	}
	trough := peak / 10
	sc := Scenario{Name: "diurnal"}
	for i := 0; i < slots; i++ {
		// Phase 0 at the trough, peak mid-cycle.
		phase := 2 * math.Pi * float64(i) / float64(slots)
		rps := trough + (peak-trough)*(1-math.Cos(phase))/2
		sc.Slots = append(sc.Slots, Slot{
			Label:    fmt.Sprintf("h%02d", i),
			RPS:      math.Round(rps*10) / 10,
			Duration: slotDur,
		})
	}
	return sc
}
