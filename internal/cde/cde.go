// Package cde implements PowerChop's Criticality Decision Engine: the
// software component (an extension of the BT runtime) that characterizes
// unit criticality per phase and assigns power gating policies
// (Section IV-C, Algorithm 1).
//
// The engine is invoked on PVT misses. It distinguishes:
//
//   - New phase — never seen before: the phase enters profiling mode.
//     Profiling information comes from hardware performance monitors over
//     the next execution window(s). VPU and MLC criticality need one
//     window measured at full power with the large BPU active; BPU
//     criticality needs a second window with the small predictor active
//     (the two misprediction rates are differenced). When enough
//     information has been gathered, the policy is computed and registered
//     with the PVT.
//   - Continued phase profiling — the phase is mid-profile: consume the
//     window's counters and either finish or keep collecting.
//   - Evicted phase — previously characterized but evicted from the PVT:
//     re-register the stored policy from the engine's in-memory backing
//     store.
//
// Criticality scores (Section IV-C2):
//
//	Criticality_VPU = Phase_SIMD  / Phase_TotInsn
//	Criticality_BPU = MisPred_Small − MisPred_Large   (per-branch rates)
//	Criticality_MLC = Phase_L2Hit / Phase_TotInsn
package cde

import (
	"fmt"

	"powerchop/internal/obs"
	"powerchop/internal/phase"
	"powerchop/internal/pvt"
)

// Thresholds are the criticality cut-offs for gating decisions. The
// paper's text elides the numeric values; these defaults were selected by
// the same sweep procedure the paper describes (maximize savings at ≈2%
// average slowdown) — see the thresholds table of the ablations figure
// (powerchop figure -id ablations).
type Thresholds struct {
	VPU  float64 // gate VPU off when Criticality_VPU  <= VPU
	BPU  float64 // gate BPU off when Criticality_BPU  <= BPU
	MLC1 float64 // all ways when Criticality_MLC >  MLC1
	MLC2 float64 // one way  when Criticality_MLC <= MLC2, else half
}

// DefaultThresholds returns the repository's calibrated defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{VPU: 0.005, BPU: 0.005, MLC1: 0.005, MLC2: 0.0005}
}

// AggressiveThresholds returns the paper's suggested alternative policy
// (Section V-A): higher thresholds that target energy minimization, gating
// units unless they are strongly critical and accepting more slowdown in
// exchange.
func AggressiveThresholds() Thresholds {
	return Thresholds{VPU: 0.02, BPU: 0.04, MLC1: 0.02, MLC2: 0.002}
}

// Validate reports an error for inconsistent thresholds.
func (t Thresholds) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"VPU", t.VPU}, {"BPU", t.BPU}, {"MLC1", t.MLC1}, {"MLC2", t.MLC2}} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("cde: threshold %s = %v out of [0,1]", f.name, f.v)
		}
	}
	if t.MLC2 > t.MLC1 {
		return fmt.Errorf("cde: MLC2 (%v) exceeds MLC1 (%v)", t.MLC2, t.MLC1)
	}
	return nil
}

// Managed selects which units the engine controls; unmanaged units stay
// fully powered (used for the paper's per-unit isolation studies).
type Managed struct {
	VPU bool
	BPU bool
	MLC bool
}

// ManageAll enables all three units.
func ManageAll() Managed { return Managed{VPU: true, BPU: true, MLC: true} }

// WindowProfile carries one execution window's performance-monitor
// readings into the engine.
type WindowProfile struct {
	TotalInsns  uint64
	SIMDInsns   uint64
	L2Hits      uint64
	Branches    uint64
	Mispredicts uint64
	// LargeBPUActive records which predictor steered the window.
	LargeBPUActive bool
	// MLCFullyOn records whether every MLC way was powered, a
	// precondition for a valid L2-hit criticality measurement.
	MLCFullyOn bool
	// VPUOn records whether vector instructions executed on the VPU; the
	// SIMD ratio is architectural and valid either way.
	VPUOn bool
	// Warm records that the full measurement configuration (large BPU,
	// all MLC ways) was already in effect for at least two preceding
	// windows, so the window's rates are not polluted by rewarming a
	// just-ungated predictor or cache.
	Warm bool
	// Current is the gating policy in effect during the window. Used as
	// the fallback registration for phases that never become measurable.
	Current pvt.Policy
}

// mispredRate returns the per-branch misprediction rate.
func (p WindowProfile) mispredRate() float64 {
	if p.Branches == 0 {
		return 0
	}
	return float64(p.Mispredicts) / float64(p.Branches)
}

// MaxProfileAttempts bounds how many CDE invocations a phase may spend in
// profiling mode before the engine gives up and registers a conservative
// full-power policy. Transition phases (windows straddling a phase edge)
// recur only at phase boundaries and always execute under the outgoing
// phase's gated policy, so their measurement preconditions may never be
// met; without a bound they would pay the PVT-miss interrupt cost at every
// boundary forever.
const MaxProfileAttempts = 8

// profState tracks an in-flight profile of one phase.
type profState struct {
	haveMain     bool // window A consumed (full power, large BPU)
	simdRatio    float64
	l2HitRatio   float64
	misPredLarge float64
	haveSmall    bool // window B consumed (small BPU)
	misPredSmall float64
	windows      int
	attempts     int
}

// Action is the engine's response to a PVT miss.
type Action struct {
	// Policy to apply for the next window: either the registered policy
	// (hit in backing store or profiling complete) or the profiling
	// configuration still needed.
	Policy pvt.Policy
	// Profiling is true while the phase is still being measured; the
	// Policy then encodes the measurement configuration.
	Profiling bool
	// Registered is true when this invocation registered a policy with
	// the PVT (newly computed or re-registered after eviction).
	Registered bool
	// NewPhase is true when the miss was compulsory (first sighting).
	NewPhase bool
}

// Stats counts engine activity.
type Stats struct {
	Invocations      uint64
	CompulsoryMisses uint64
	CapacityMisses   uint64
	ProfileWindows   uint64
	Registrations    uint64
	PhasesProfiled   uint64
	ProfileAbandons  uint64
}

// Engine is the Criticality Decision Engine.
type Engine struct {
	table   *pvt.Table
	backing map[phase.Signature]pvt.Policy
	inprog  map[phase.Signature]*profState
	thr     Thresholds
	managed Managed
	stats   Stats
	tracer  obs.Tracer
}

// New builds an engine around the given PVT.
func New(table *pvt.Table, thr Thresholds, managed Managed) (*Engine, error) {
	if table == nil {
		return nil, fmt.Errorf("cde: nil PVT")
	}
	if err := thr.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		table:   table,
		backing: make(map[phase.Signature]pvt.Policy),
		inprog:  make(map[phase.Signature]*profState),
		thr:     thr,
		managed: managed,
	}, nil
}

// Stats returns the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetTracer attaches an event tracer; completed profiles then emit
// KindCDEScore events (one per managed unit) and registrations emit
// KindCDERegister. A nil tracer (the default) disables emission.
func (e *Engine) SetTracer(t obs.Tracer) { e.tracer = t }

// Thresholds returns the engine's criticality thresholds.
func (e *Engine) Thresholds() Thresholds { return e.thr }

// KnownPhases returns the number of phases with computed policies (in the
// PVT or its backing store).
func (e *Engine) KnownPhases() int { return len(e.backing) }

// profilingPolicy returns the measurement configuration for the next
// window: full power, with the large BPU only when window A is still
// needed.
func (e *Engine) profilingPolicy(st *profState) pvt.Policy {
	p := pvt.FullOn
	if st.haveMain && e.managed.BPU && !st.haveSmall {
		p.BPUOn = false // window B: measure the small predictor
	}
	return p
}

// complete reports whether the profile has every measurement the managed
// units require.
func (e *Engine) complete(st *profState) bool {
	if (e.managed.VPU || e.managed.MLC || e.managed.BPU) && !st.haveMain {
		return false
	}
	if e.managed.BPU && !st.haveSmall {
		return false
	}
	return true
}

// decide computes the gating policy from a completed profile of sig,
// emitting one fully-provenanced score event per managed unit.
func (e *Engine) decide(sig phase.Signature, st *profState) pvt.Policy {
	p := pvt.FullOn
	if e.managed.VPU {
		p.VPUOn = st.simdRatio > e.thr.VPU
		e.score(sig, st, "VPU", "simd-ratio", st.simdRatio, e.thr.VPU, 0, boolBit(p.VPUOn))
	}
	if e.managed.BPU {
		critBPU := st.misPredSmall - st.misPredLarge
		p.BPUOn = critBPU > e.thr.BPU
		e.score(sig, st, "BPU", "mispred-delta", critBPU, e.thr.BPU, 0, boolBit(p.BPUOn))
	}
	if e.managed.MLC {
		switch {
		case st.l2HitRatio > e.thr.MLC1:
			p.MLC = pvt.MLCAll
		case st.l2HitRatio <= e.thr.MLC2:
			p.MLC = pvt.MLCOne
		default:
			p.MLC = pvt.MLCHalf
		}
		e.score(sig, st, "MLC", "l2hit-ratio", st.l2HitRatio, e.thr.MLC1, e.thr.MLC2, uint8(p.MLC))
	}
	return p
}

// boolBit encodes an on/off outcome for the score event's Policy field.
func boolBit(on bool) uint8 {
	if on {
		return 1
	}
	return 0
}

// score emits one unit's criticality measurement with its full decision
// provenance: the phase, the threshold(s) the value was compared against
// (thr2 is the MLC's second cut-off, zero elsewhere), the outcome and the
// number of profile windows behind the measurement.
func (e *Engine) score(sig phase.Signature, st *profState, unit, metric string, value, thr, thr2 float64, outcome uint8) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind:   obs.KindCDEScore,
		Unit:   unit,
		Detail: metric,
		Value:  value,
		SigIDs: sig.IDs,
		SigN:   sig.N,
		Prev:   thr,
		Next:   thr2,
		Policy: outcome,
		Count:  uint64(st.windows),
	})
}

// register installs the policy in the PVT and spills any evicted entry to
// the backing store. how records the registration path for the event
// stream: "computed", "restored" or "abandoned"; st is the profile behind
// the registration (nil on the restored path).
func (e *Engine) register(sig phase.Signature, p pvt.Policy, how string, st *profState) {
	e.backing[sig] = p
	if evSig, evPol, ev := e.table.Register(sig, p); ev {
		e.backing[evSig] = evPol
	}
	e.stats.Registrations++
	if e.tracer != nil {
		ev := obs.Event{
			Kind:   obs.KindCDERegister,
			SigIDs: sig.IDs,
			SigN:   sig.N,
			Policy: p.Encode(),
			Detail: how,
		}
		if st != nil {
			ev.Value = float64(st.windows)
			ev.Count = uint64(st.attempts)
		}
		e.tracer.Emit(ev)
	}
}

// HandleMiss implements Algorithm 1. It is invoked when the window that
// just ended produced signature sig and the PVT lookup missed; prof is
// that window's performance-monitor profile.
func (e *Engine) HandleMiss(sig phase.Signature, prof WindowProfile) Action {
	e.stats.Invocations++

	// Evicted phase: already characterized, fetch from memory and
	// re-register with the PVT.
	if policy, known := e.backing[sig]; known {
		e.stats.CapacityMisses++
		e.register(sig, policy, "restored", nil)
		return Action{Policy: policy, Registered: true}
	}

	st, profiling := e.inprog[sig]
	newPhase := !profiling
	if newPhase {
		// Compulsory miss: enter profiling mode. The window that just
		// ended is NOT consumed — it straddles the phase edge and its
		// counters are contaminated by the previous phase; profiling
		// information is collected over the next execution window(s)
		// (Section IV-C1).
		e.stats.CompulsoryMisses++
		e.stats.PhasesProfiled++
		st = &profState{}
		e.inprog[sig] = st
	} else {
		// Continued profiling: the window that just ended ran under a
		// measurement configuration; consume its counters.
		disposition := e.consume(st, prof)
		if e.tracer != nil {
			e.tracer.Emit(obs.Event{
				Kind:   obs.KindCDEProfile,
				SigIDs: sig.IDs,
				SigN:   sig.N,
				Detail: disposition,
				Count:  uint64(st.windows),
				Value:  float64(st.attempts),
			})
		}
	}

	if e.complete(st) {
		policy := e.decide(sig, st)
		delete(e.inprog, sig)
		e.register(sig, policy, "computed", st)
		return Action{Policy: policy, Registered: true, NewPhase: newPhase}
	}
	st.attempts++
	if st.attempts >= MaxProfileAttempts {
		// The phase never recurs under a measurable configuration
		// (typically a phase-transition signature that only executes
		// while the outgoing phase's gated policy is in effect). Stop
		// paying the PVT-miss interrupt on every recurrence: register
		// the policy the phase has been running under, which by
		// construction has shown acceptable behaviour across the failed
		// measurement attempts.
		delete(e.inprog, sig)
		e.stats.ProfileAbandons++
		e.register(sig, prof.Current, "abandoned", st)
		return Action{Policy: prof.Current, Registered: true, NewPhase: newPhase}
	}
	return Action{Policy: e.profilingPolicy(st), Profiling: true, NewPhase: newPhase}
}

// consume folds one window's counters into the profile when the window ran
// under a valid measurement configuration, returning the window's
// disposition for the event stream: "main" (full-power measurement
// taken), "small" (small-BPU rate taken), "skipped" (preconditions
// unmet) or "empty" (no instructions executed).
func (e *Engine) consume(st *profState, prof WindowProfile) string {
	if prof.TotalInsns == 0 {
		return "empty"
	}
	st.windows++
	e.stats.ProfileWindows++
	if !st.haveMain && prof.MLCFullyOn && prof.LargeBPUActive && prof.Warm {
		st.haveMain = true
		st.simdRatio = float64(prof.SIMDInsns) / float64(prof.TotalInsns)
		st.l2HitRatio = float64(prof.L2Hits) / float64(prof.TotalInsns)
		st.misPredLarge = prof.mispredRate()
		return "main"
	}
	if st.haveMain && !st.haveSmall && !prof.LargeBPUActive {
		st.haveSmall = true
		st.misPredSmall = prof.mispredRate()
		return "small"
	}
	return "skipped"
}

// PoliciesInFlight returns the number of phases currently being profiled.
func (e *Engine) PoliciesInFlight() int { return len(e.inprog) }
