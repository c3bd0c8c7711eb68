// Package obs is the simulator's observability layer: a typed event
// stream describing PowerChop's runtime behaviour (execution-window
// closes, PVT hits and evictions, CDE profiling activity, gating
// transitions, translation installs) plus a metrics registry of named
// counters and fixed-bucket histograms.
//
// The layer is designed to cost nothing when unused. Instrumented
// components hold a Tracer that defaults to nil and guard every emission
// with a nil check, so the hot path pays one predictable branch and no
// allocations when tracing is off. Event is a flat value type — no
// pointers, no heap — so constructing and passing one never allocates;
// sinks that need to retain events copy them.
//
// obs sits at the bottom of the dependency graph: every mechanism package
// (phase, pvt, cde, gating, sim) may import it, so it must not import any
// of them. Signatures and policies therefore appear in events as raw
// values (a fixed ID array, the encoded 4-bit policy vector) rather than
// as the packages' own types.
package obs

import (
	"fmt"
	"strings"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindWindowClose marks an execution-window boundary: the HTB formed
	// the window's phase signature and flushed. Window is the completed
	// window's ordinal (1-based), Sig the signature, Count the window's
	// translated dynamic instruction count, Value the cumulative number
	// of translation executions dropped because the HTB was full, Prev
	// the signature's coverage (the fraction of the window's instructions
	// executed by the signature's hot translations).
	KindWindowClose Kind = iota
	// KindPVTHit is a policy vector table lookup that hit. Sig is the
	// looked-up signature, Policy the stored 4-bit policy vector, Count
	// the table occupancy at the lookup.
	KindPVTHit
	// KindPVTMiss is a PVT lookup that missed. Sig is the signature,
	// Count the table occupancy.
	KindPVTMiss
	// KindPVTEvict is a PVT capacity eviction. Sig is the evicted
	// signature, Policy its policy vector, Count the victim way index.
	KindPVTEvict
	// KindCDEInvoke is a software CDE invocation (PVT-miss interrupt).
	// Sig is the missing signature, Value the interrupt's cycle cost.
	KindCDEInvoke
	// KindCDEScore is one unit's criticality score from a completed
	// profile (Algorithm 1). Unit names the unit, Value the score, Detail
	// the metric ("simd-ratio", "mispred-delta", "l2hit-ratio"). For
	// decision provenance the event also carries Sig (the phase being
	// decided), Prev (the threshold compared against; MLC1 for the MLC),
	// Next (the MLC2 threshold, MLC only), Policy (the outcome: 1/0 for
	// VPU/BPU on/off, the MLCState value for the MLC) and Count (profile
	// windows consumed when the score was computed).
	KindCDEScore
	// KindCDERegister is a policy registration with the PVT. Sig is the
	// phase, Policy the registered vector, Detail the path: "computed"
	// (fresh profile), "restored" (re-registered after eviction) or
	// "abandoned" (profiling gave up, current policy kept). Value is the
	// profile windows consumed and Count the profiling attempts spent
	// (both zero on the "restored" path, which needs no profile).
	KindCDERegister
	// KindGate is a gating transition. Unit names the unit, Prev and
	// Next are the power fractions before and after, Stall the stall
	// cycles charged for the transition, Count the unit's cumulative
	// switch count, Cycle the transition time.
	KindGate
	// KindTranslate is a region-cache install: the translator produced a
	// new translation. Count is the translation ID (head PC), Value the
	// region's guest instruction count.
	KindTranslate
	// KindCDEProfile records the CDE consuming (or rejecting) one
	// execution window while profiling a phase. Sig is the phase under
	// profile, Detail the window's disposition ("main" — full-power
	// measurement taken, "small" — small-BPU mispredict rate taken,
	// "skipped" — preconditions unmet, "empty" — no instructions), Count
	// the profile windows consumed so far, Value the profiling attempts
	// spent so far.
	KindCDEProfile
	// KindRunEnd marks the end of a simulation run, stamped with the
	// final cycle and window count. It lets trace consumers close out
	// interval accounting (residency, attribution) at exactly the cycle
	// the simulator itself closes out gating residency.
	KindRunEnd
	// KindSpanBegin opens a service-layer span (request → sweep →
	// benchmark → sim; see internal/obs/span). Unlike every other kind
	// its clock is the wall clock, not the simulated one: Cycle carries
	// microseconds since the Unix epoch. Unit is the span name, Detail
	// its attributes ("req=<id> k=v ..."), Count the span ID and Value
	// the parent span ID (0 for a root).
	KindSpanBegin
	// KindSpanEnd closes a span. Cycle is the wall-clock end time in
	// Unix microseconds, Count the span ID, Value the span duration in
	// microseconds, Unit the span name and Detail the outcome
	// ("error=..." on failure, empty on success).
	KindSpanEnd
	// KindAlert is an alert-rule state transition from the alert
	// evaluator (internal/obs/alert). Unit names the rule, Detail the new
	// state ("pending", "firing", "resolved"), Value the observed value,
	// Prev the rule's threshold, Window the evaluation boundary for
	// series rules (0 for registry-metric rules, which instead carry the
	// evaluation tick in Count) and Cycle the simulated cycle of the
	// boundary's last sample. Alert events ride the ordinary stream so
	// traces, SSE clients and Chrome exports see them; every simulation
	// consumer ignores them.
	KindAlert
	numKinds
)

// kindNames maps kinds to their wire names; KindFromString inverts it.
var kindNames = [numKinds]string{
	KindWindowClose: "window-close",
	KindPVTHit:      "pvt-hit",
	KindPVTMiss:     "pvt-miss",
	KindPVTEvict:    "pvt-evict",
	KindCDEInvoke:   "cde-invoke",
	KindCDEScore:    "cde-score",
	KindCDERegister: "cde-register",
	KindGate:        "gate",
	KindTranslate:   "translate",
	KindCDEProfile:  "cde-profile",
	KindRunEnd:      "run-end",
	KindSpanBegin:   "span-begin",
	KindSpanEnd:     "span-end",
	KindAlert:       "alert",
}

// IsSpanKind reports whether the kind belongs to the service-layer span
// stream (wall-clock timestamps) rather than the simulation stream.
func IsSpanKind(k Kind) bool {
	return k == KindSpanBegin || k == KindSpanEnd
}

// IsDecisionKind reports whether the kind is part of a gating decision's
// lineage — the PVT lookup path and the CDE's profiling, scoring and
// registration activity. The serve layer's /decisions stream and the
// audit package filter on it.
func IsDecisionKind(k Kind) bool {
	switch k {
	case KindPVTHit, KindPVTMiss, KindPVTEvict,
		KindCDEInvoke, KindCDEScore, KindCDERegister, KindCDEProfile:
		return true
	}
	return false
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindFromString parses a wire name back into a Kind.
func KindFromString(s string) (Kind, error) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MaxSigIDs is the widest phase signature an event can carry; it matches
// phase.MaxSignatureLen (asserted at compile time where phase emits).
const MaxSigIDs = 8

// Event is one observation. It is a flat value type: constructing and
// passing an Event never allocates, so emission is safe on hot paths.
// Which fields are meaningful depends on Kind (see the Kind constants);
// unused fields are zero.
type Event struct {
	// Kind classifies the event.
	Kind Kind
	// Cycle is the simulated cycle of the event. Events emitted by
	// components without a clock carry 0 and are stamped by the Stamped
	// wrapper.
	Cycle float64
	// Window is the completed-window count when the event fired (the
	// window-close event's own ordinal; stamped elsewhere).
	Window uint64
	// Unit names the hardware unit for gating and scoring events.
	Unit string
	// Detail is a kind-specific tag (registration path, score metric).
	Detail string
	// SigIDs / SigN carry a phase signature: the first SigN entries of
	// SigIDs are the sorted translation IDs.
	SigIDs [MaxSigIDs]uint32
	SigN   uint8
	// Policy is the encoded 4-bit gating policy vector where relevant.
	Policy uint8
	// Prev and Next are gating power fractions before/after a transition.
	Prev float64
	Next float64
	// Stall is the stall-cycle cost charged with the event.
	Stall float64
	// Value and Count are kind-specific scalars (see Kind docs).
	Value float64
	Count uint64
}

// SigString renders the event's signature like phase.Signature.String
// ("<t1a,t2b>"), or "" when the event carries none.
func (e Event) SigString() string {
	if e.SigN == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('<')
	for i := 0; i < int(e.SigN) && i < MaxSigIDs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "t%x", e.SigIDs[i])
	}
	b.WriteByte('>')
	return b.String()
}

// PolicyString renders the encoded policy vector as a 4-bit string
// ("VBMM" bit order: bit 3 = VPU on, bit 2 = BPU on, bits 1..0 = MLC
// state; see pvt.Policy.Encode).
func (e Event) PolicyString() string {
	return fmt.Sprintf("%04b", e.Policy&0xF)
}

// Tracer receives the event stream. Implementations must tolerate being
// called from the simulator's hot path: Emit should be cheap and must not
// retain references derived from the event beyond the call (Event is a
// value, so copying it is always safe). Tracers wired into a single
// simulation are called from one goroutine; the sinks in this package are
// additionally safe for concurrent use so one sink can serve several
// simulations at once.
type Tracer interface {
	Emit(e Event)
}

// Nop is the no-op Tracer: every event is discarded. It exists so callers
// can unconditionally emit through a non-nil Tracer; components in this
// repository instead keep a nil Tracer and skip emission entirely.
type Nop struct{}

// Emit implements Tracer by doing nothing.
func (Nop) Emit(Event) {}

// multi fans events out to several tracers in order.
type multi []Tracer

// Emit implements Tracer.
func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Multi combines tracers into one. Nil entries are dropped; the result is
// nil when nothing remains, the tracer itself when one remains. Callers
// must pass untyped nils only (a typed-nil concrete sink wrapped in the
// interface is kept and will be called).
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return multi(live)
	}
}

// stamped decorates events with the simulation clock.
type stamped struct {
	t   Tracer
	now func() (cycle float64, window uint64)
}

// Emit implements Tracer: events that carry no cycle or window of their
// own (zero fields) are stamped from the clock before forwarding. Events
// that already carry a cycle — gating transitions, which may be
// retroactive — pass through unchanged.
func (s stamped) Emit(e Event) {
	if IsSpanKind(e.Kind) {
		// Span events run on the wall clock; stamping them with the
		// simulated clock would corrupt their timeline.
		s.t.Emit(e)
		return
	}
	cycle, window := s.now()
	if e.Cycle == 0 {
		e.Cycle = cycle
	}
	if e.Window == 0 {
		e.Window = window
	}
	s.t.Emit(e)
}

// Stamped wraps a tracer so every event is stamped with the current
// simulated cycle and completed-window count from now. The simulator
// installs one Stamped wrapper and hands it to every component, giving
// clockless components (PVT, CDE, HTB) time-ordered events for free.
func Stamped(t Tracer, now func() (cycle float64, window uint64)) Tracer {
	if t == nil || now == nil {
		return t
	}
	return stamped{t: t, now: now}
}
