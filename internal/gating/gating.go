// Package gating implements the sleep-transistor controller for gateable
// units: it tracks each unit's power state over simulated time, counts
// gating transitions, and accumulates residency (cycles spent at each
// power level) for the power model and for the paper's unit-activity and
// policy-change-frequency figures (Figures 9-11).
//
// Power levels are expressed as the fraction of the unit's circuits that
// remain powered: 1 is fully on, 0 fully gated, and the MLC's way-gating
// states use 0.5 (half the ways) and 1/ways (a single way).
//
// A Unit is not internally synchronized: it belongs to the single
// simulation goroutine of the managed unit that owns it (see
// internal/sim). Concurrent simulations each build their own trackers;
// only the obs.Tracer they emit into may be shared, and those sinks are
// documented concurrency-safe.
package gating

import (
	"fmt"
	"sort"

	"powerchop/internal/obs"
)

// Unit tracks the gating state of one logical unit over simulated cycles.
type Unit struct {
	name      string
	powerFrac float64
	lastCycle float64
	switches  uint64
	residency map[float64]float64
	closed    bool
	tracer    obs.Tracer
}

// NewUnit creates a unit tracker starting at the given power fraction at
// cycle 0.
func NewUnit(name string, initFrac float64) *Unit {
	if initFrac < 0 || initFrac > 1 {
		panic(fmt.Sprintf("gating: unit %q initial power fraction %v", name, initFrac))
	}
	return &Unit{name: name, powerFrac: initFrac, residency: map[float64]float64{}}
}

// Name returns the unit's label.
func (u *Unit) Name() string { return u.name }

// SetTracer attaches an event tracer; each state change then emits a
// KindGate event. A nil tracer (the default) disables emission.
func (u *Unit) SetTracer(t obs.Tracer) { u.tracer = t }

// PowerFrac returns the unit's current power fraction.
func (u *Unit) PowerFrac() float64 { return u.powerFrac }

// Set transitions the unit to the given power fraction at the given cycle,
// accumulating residency for the elapsed interval at the previous level.
// It returns true when the call actually changed the unit's state (and so
// counts as a gating transition). Cycles must be non-decreasing across
// calls; this allows retroactive transitions (a timeout policy deciding at
// cycle Y that the unit went idle at an earlier cycle X still issues its
// Set calls in time order X then Y).
func (u *Unit) Set(frac, cycle float64) bool {
	return u.Transition(frac, cycle, 0)
}

// Transition is Set with the stall-cycle cost the caller charges for the
// change, so the emitted gating event carries the transition's price. A
// no-op call (frac unchanged) emits nothing.
func (u *Unit) Transition(frac, cycle, stallCycles float64) bool {
	if u.closed {
		panic(fmt.Sprintf("gating: unit %q used after CloseOut", u.name))
	}
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("gating: unit %q power fraction %v", u.name, frac))
	}
	if cycle < u.lastCycle {
		panic(fmt.Sprintf("gating: unit %q time went backwards (%v < %v)", u.name, cycle, u.lastCycle))
	}
	u.residency[u.powerFrac] += cycle - u.lastCycle
	u.lastCycle = cycle
	if frac == u.powerFrac {
		return false
	}
	prev := u.powerFrac
	u.powerFrac = frac
	u.switches++
	if u.tracer != nil {
		u.tracer.Emit(obs.Event{
			Kind:  obs.KindGate,
			Cycle: cycle,
			Unit:  u.name,
			Prev:  prev,
			Next:  frac,
			Stall: stallCycles,
			Count: u.switches,
		})
	}
	return true
}

// CloseOut accumulates the final interval up to the given end cycle. The
// unit must not be used afterwards.
func (u *Unit) CloseOut(endCycle float64) {
	if u.closed {
		return
	}
	if endCycle < u.lastCycle {
		panic(fmt.Sprintf("gating: unit %q close-out before last transition", u.name))
	}
	u.residency[u.powerFrac] += endCycle - u.lastCycle
	u.lastCycle = endCycle
	u.closed = true
}

// Switches returns the number of state transitions so far.
func (u *Unit) Switches() uint64 { return u.switches }

// Residency returns the cycles spent at exactly the given power fraction.
func (u *Unit) Residency(frac float64) float64 { return u.residency[frac] }

// Levels returns the distinct power levels the unit visited, ascending.
func (u *Unit) Levels() []float64 {
	out := make([]float64, 0, len(u.residency))
	for f := range u.residency {
		out = append(out, f)
	}
	sort.Float64s(out)
	return out
}

// TotalCycles returns the cycles accounted across all levels, summed in
// ascending level order: floating-point addition is not associative, so
// a sum in map order could differ in its last bit from run to run.
func (u *Unit) TotalCycles() float64 {
	t := 0.0
	for _, f := range u.Levels() {
		t += u.residency[f]
	}
	return t
}

// GatedFrac returns the fraction of accounted cycles the unit spent in any
// state below fully-on — the quantity plotted in Figures 9, 10 and 16.
func (u *Unit) GatedFrac() float64 {
	t := u.TotalCycles()
	if t == 0 {
		return 0
	}
	return (t - u.residency[1]) / t
}

// SwitchesPerMillionCycles returns the paper's Figure 11 metric.
func (u *Unit) SwitchesPerMillionCycles() float64 {
	t := u.TotalCycles()
	if t == 0 {
		return 0
	}
	return float64(u.switches) / t * 1e6
}
