package core

import (
	"fmt"

	"powerchop/internal/obs"
	"powerchop/internal/pvt"
)

// DarkGatesConfig parameterizes the DarkGates-style bypass manager.
//
// The defaults price transitions and leakage at the server design point
// (internal/arch): a VPU round trip costs the gate stall plus the
// register-file save and restore (2×530 cycles), and the per-unit
// leakage watts follow Table I's area shares of the 6 W core budget.
// The break-even test is a ratio of unit leakage to total leakage, so
// the same defaults remain directionally right on the mobile core.
type DarkGatesConfig struct {
	// Inner is the wrapped PowerChop configuration producing the
	// candidate gating decisions.
	Inner Config
	// HorizonWindows is the predicted gating horizon: how many windows
	// (of EWMA-smoothed recent length) a unit is expected to stay gated
	// once gated. Larger horizons amortize transition costs over more
	// leakage savings and approve more gating.
	HorizonWindows float64
	// Margin scales the required savings: gating is approved only when
	// predicted leakage savings exceed Margin × predicted stall cost.
	// Above 1 the manager is conservative, below 1 permissive.
	Margin float64
	// TripVPU/TripBPU/TripMLC are the round-trip stall cycles (gate off
	// now, wake later) a gating decision commits the core to.
	TripVPU, TripBPU, TripMLC float64
	// LeakVPUW/LeakBPUW/LeakMLCW and TotalLeakW price the trade: a
	// stall cycle burns TotalLeakW while a gated unit saves its own
	// leakage share.
	LeakVPUW, LeakBPUW, LeakMLCW float64
	TotalLeakW                   float64
	// MLCWays sizes the way-gating power fractions.
	MLCWays int
	// OffFracBPU is the gated BPU's retained power fraction (the small
	// predictor stays on).
	OffFracBPU float64
	// GatedLeakFrac is the leakage fraction a fully gated circuit still
	// draws through its sleep transistors (power.GatedLeakageFrac).
	GatedLeakFrac float64
}

// DefaultDarkGatesConfig returns the server-priced default.
func DefaultDarkGatesConfig() DarkGatesConfig {
	return DarkGatesConfig{
		Inner:          DefaultConfig(),
		HorizonWindows: 8,
		Margin:         1,
		TripVPU:        2 * (30 + 500),
		TripBPU:        2 * 20,
		TripMLC:        2 * 50,
		LeakVPUW:       1.20,
		LeakBPUW:       0.24,
		LeakMLCW:       2.10,
		TotalLeakW:     6.00,
		MLCWays:        8,
		OffFracBPU:     0.1,
		GatedLeakFrac:  0.05,
	}
}

// DarkGates is a hybrid power-gating manager in the style of DarkGates:
// it runs PowerChop's phase-driven policy underneath, but before
// enacting a decision that would gate a unit deeper it asks whether the
// gating is predicted to pay for itself — the leakage saved over the
// expected gating horizon must exceed the whole-core cost of stalling
// through the round-trip transitions. Decisions that fail the
// break-even test are bypassed: the unit keeps its current state.
// Wake-ups are never bypassed, so CDE profiling windows (which need the
// full measurement configuration) are unaffected.
type DarkGates struct {
	cfg   DarkGatesConfig
	inner *PowerChop

	// ewmaWindowCycles smooths the observed window length; lastCycle
	// marks the previous window boundary.
	ewmaWindowCycles float64
	lastCycle        float64
}

// NewDarkGates builds the manager.
func NewDarkGates(cfg DarkGatesConfig) (*DarkGates, error) {
	if cfg.HorizonWindows <= 0 {
		return nil, fmt.Errorf("core: darkgates horizon %v", cfg.HorizonWindows)
	}
	if cfg.Margin <= 0 {
		return nil, fmt.Errorf("core: darkgates margin %v", cfg.Margin)
	}
	if cfg.TotalLeakW <= 0 || cfg.LeakVPUW < 0 || cfg.LeakBPUW < 0 || cfg.LeakMLCW < 0 {
		return nil, fmt.Errorf("core: darkgates leakage budget")
	}
	if cfg.MLCWays < 1 {
		return nil, fmt.Errorf("core: darkgates MLC ways %d", cfg.MLCWays)
	}
	inner, err := NewPowerChop(cfg.Inner)
	if err != nil {
		return nil, err
	}
	return &DarkGates{cfg: cfg, inner: inner}, nil
}

// Name implements Manager.
func (d *DarkGates) Name() string { return "darkgates" }

// Boot implements Manager.
func (d *DarkGates) Boot() Directive { return d.inner.Boot() }

// Unwrap exposes the inner PowerChop (PVT/CDE reporting).
func (d *DarkGates) Unwrap() *PowerChop { return d.inner }

// SetTracer threads the tracer into the wrapped PowerChop.
func (d *DarkGates) SetTracer(t obs.Tracer) { d.inner.SetTracer(t) }

// WindowEnd implements Manager: run the inner policy, then veto any
// deeper-gating decision whose predicted savings fall short.
func (d *DarkGates) WindowEnd(r WindowReport) Directive {
	// EWMA of window length (alpha 1/4) predicts the gating horizon.
	delta := r.Cycle - d.lastCycle
	d.lastCycle = r.Cycle
	if delta > 0 {
		if d.ewmaWindowCycles == 0 {
			d.ewmaWindowCycles = delta
		} else {
			d.ewmaWindowCycles += (delta - d.ewmaWindowCycles) / 4
		}
	}

	out := d.inner.WindowEnd(r)
	horizon := d.ewmaWindowCycles * d.cfg.HorizonWindows
	if horizon <= 0 {
		return out
	}
	cur := r.Profile.Current
	out.Policy = d.filter(cur, out.Policy, horizon)
	return out
}

// filter applies the break-even test unit by unit, returning the policy
// actually enacted. Only transitions to a lower power fraction are
// candidates for bypass.
func (d *DarkGates) filter(cur, want pvt.Policy, horizon float64) pvt.Policy {
	c := d.cfg
	if !want.VPUOn && cur.VPUOn &&
		!d.approve(c.LeakVPUW, 1, 0, c.TripVPU, horizon) {
		want.VPUOn = true
	}
	if !want.BPUOn && cur.BPUOn &&
		!d.approve(c.LeakBPUW, 1, c.OffFracBPU, c.TripBPU, horizon) {
		want.BPUOn = true
	}
	curFrac := cur.MLC.PowerFrac(c.MLCWays)
	wantFrac := want.MLC.PowerFrac(c.MLCWays)
	if wantFrac < curFrac &&
		!d.approve(c.LeakMLCW, curFrac, wantFrac, c.TripMLC, horizon) {
		want.MLC = cur.MLC
	}
	return want
}

// approve prices one unit's proposed deepening from power fraction
// fromFrac to toFrac: predicted leakage energy saved over the horizon
// (discounted by the sleep-transistor residue) must exceed Margin times
// the whole-core leakage burned while stalled through the round trip.
// Both sides share a 1/ClockHz factor, so the comparison stays in
// cycle·watt units.
func (d *DarkGates) approve(leakW, fromFrac, toFrac, tripCycles, horizon float64) bool {
	saved := leakW * (fromFrac - toFrac) * (1 - d.cfg.GatedLeakFrac) * horizon
	cost := d.cfg.TotalLeakW * tripCycles
	return saved > d.cfg.Margin*cost
}
