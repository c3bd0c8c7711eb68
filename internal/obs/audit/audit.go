// Package audit reconstructs decision provenance from the obs event
// stream: it joins the CDE's scoring and registration events, the PVT's
// hit/miss/eviction path and the gating transitions into per-decision
// records and a per-phase attribution table — which phase ran under
// which policy, for how many cycles, how much leakage energy each gating
// decision saved, and what slowdown (transition stalls plus CDE
// invocation cycles) it cost.
//
// The Auditor is a pure observer: it implements obs.Tracer, derives
// everything from the events it is handed, and feeds nothing back into
// the simulation. Attaching one to a run leaves the run's results
// byte-identical.
//
// Attribution semantics: the policy decided at a window boundary governs
// the cycles that follow until the next decision, so the auditor charges
// each inter-event span to the phase whose PVT hit or CDE registration
// most recently set the policy (cycles before the first decision land in
// the "(boot)" pseudo-phase). Per-unit gated cycles integrate
// (1 − powerFrac) over those spans — exactly the quantity the power
// model's AddResidency turns into leakage savings — so a phase's
// attributed EnergySavedJ sums across phases to the run's per-unit
// LeakSavedJ (up to float summation order). Retroactive transitions (the
// idle-timeout baseline's backdated VPU gate-offs) are clamped to the
// audit clock, so exact reconciliation holds for the managers that only
// gate at window boundaries — PowerChop itself.
//
// Unit power state follows the trace fold's run rule (obs.Fold): a
// run-end returns every unit to full power, and the next run starts at
// cycle 0 under "(boot)", so a trace of several runs audits to the
// merge of the runs' own trails.
package audit

import (
	"encoding/json"
	"fmt"
	"sync"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/power"
	"powerchop/internal/pvt"
)

// BootPhase is the pseudo-phase that absorbs cycles before the first
// gating decision.
const BootPhase = "(boot)"

// UnitPower names one gateable unit and its full-on leakage power, the
// inputs attribution needs from the design point.
type UnitPower struct {
	Name     string
	LeakageW float64
}

// Config parameterizes an Auditor.
type Config struct {
	// ClockHz converts attributed cycles to seconds and joules.
	ClockHz float64
	// Units are the gateable units whose savings are attributed, with
	// their leakage budgets.
	Units []UnitPower
	// TotalLeakageW is the whole-core leakage draw, used to cost the
	// slowdown a decision incurs (stall and CDE cycles burn leakage
	// across the entire core, not just the gated unit).
	TotalLeakageW float64
	// Registry, when non-nil, receives the audit histograms (decision
	// latency, per-unit score distributions, PVT residency) alongside
	// whatever else it holds — typically a Collector's registry so the
	// distributions appear on /metrics. Nil creates a private registry
	// whose snapshot is attached to the Trail.
	Registry *obs.Registry
}

// DesignConfig prices attribution at a design point: the gateable
// units' leakage budgets for attributed savings, and the whole-core
// leakage, PowerChop's own HTB/PVT hardware included, for costing the
// slowdown cycles decisions incur.
func DesignConfig(d arch.Design) Config {
	return Config{
		ClockHz: d.ClockHz,
		Units: []UnitPower{
			{Name: d.PowerVPU.Name, LeakageW: d.PowerVPU.LeakageW},
			{Name: d.PowerBPU.Name, LeakageW: d.PowerBPU.LeakageW},
			{Name: d.PowerMLC.Name, LeakageW: d.PowerMLC.LeakageW},
		},
		TotalLeakageW: d.TotalLeakageW() + power.HTBPowerW,
	}
}

// ScoreRecord is one unit's criticality measurement inside a decision:
// the raw counter-derived value, the threshold(s) Algorithm 1 compared it
// against, and the outcome.
type ScoreRecord struct {
	Unit   string  `json:"unit"`
	Metric string  `json:"metric"` // "simd-ratio", "mispred-delta", "l2hit-ratio"
	Value  float64 `json:"value"`
	// Threshold is the cut-off compared against (MLC1 for the MLC).
	Threshold float64 `json:"threshold"`
	// Threshold2 is the MLC's second cut-off (MLC2); zero elsewhere.
	Threshold2 float64 `json:"threshold2,omitempty"`
	// Outcome encodes the resulting policy slice: 1/0 for VPU/BPU
	// on/off, the pvt.MLCState value for the MLC.
	Outcome uint8 `json:"outcome"`
	// ProfileWindows is how many windows the profile had consumed when
	// the score was computed.
	ProfileWindows uint64 `json:"profile_windows"`
}

// Comparison renders the threshold comparison the score decided, e.g.
// "0.00013 <= 0.005 -> off" or "0.012 > 0.005 -> all-ways".
func (s ScoreRecord) Comparison() string {
	if s.Metric == "l2hit-ratio" {
		switch {
		case s.Value > s.Threshold:
			return fmt.Sprintf("%.4g > %.4g -> %s", s.Value, s.Threshold, pvt.MLCAll)
		case s.Value <= s.Threshold2:
			return fmt.Sprintf("%.4g <= %.4g -> %s", s.Value, s.Threshold2, pvt.MLCOne)
		default:
			return fmt.Sprintf("%.4g in (%.4g, %.4g] -> %s", s.Value, s.Threshold2, s.Threshold, pvt.MLCHalf)
		}
	}
	if s.Value > s.Threshold {
		return fmt.Sprintf("%.4g > %.4g -> on", s.Value, s.Threshold)
	}
	return fmt.Sprintf("%.4g <= %.4g -> off", s.Value, s.Threshold)
}

// DecisionRecord is the full lineage of one policy registration: which
// phase, along which path, after how much profiling, with which scores
// against which thresholds, yielding which policy.
type DecisionRecord struct {
	// Phase is the phase signature ("<t1,t2,...>").
	Phase string `json:"phase"`
	// Window and Cycle locate the registration in simulated time.
	Window uint64  `json:"window"`
	Cycle  float64 `json:"cycle"`
	// Path is the registration path: "computed" (fresh profile),
	// "restored" (re-registered after eviction) or "abandoned"
	// (profiling gave up; the phase keeps its current policy).
	Path string `json:"path"`
	// Policy is the registered 4-bit vector; PolicyStr its decoded form.
	Policy    uint8  `json:"policy"`
	PolicyStr string `json:"policy_str"`
	// Scores are the criticality measurements behind a "computed"
	// decision, in unit order (empty for restored/abandoned).
	Scores []ScoreRecord `json:"scores,omitempty"`
	// ProfileWindows / Attempts are the windows consumed and CDE
	// invocations spent profiling (zero on the restored path).
	ProfileWindows uint64 `json:"profile_windows"`
	Attempts       uint64 `json:"attempts"`
	// LatencyWindows is the window distance from the phase's first PVT
	// miss to this registration — the decision latency.
	LatencyWindows uint64 `json:"latency_windows"`
}

// PhaseAttribution is one phase's share of the run: how long its
// decisions governed, what they saved and what they cost.
type PhaseAttribution struct {
	Phase string `json:"phase"`
	// Policy is the phase's most recent policy vector.
	Policy    uint8  `json:"policy"`
	PolicyStr string `json:"policy_str"`
	// Windows / Insns / Cycles measure the spans this phase's decision
	// governed.
	Windows uint64  `json:"windows"`
	Insns   uint64  `json:"insns"`
	Cycles  float64 `json:"cycles"`
	// PVT path counts for the phase's signature.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Decisions counts this phase's registration records.
	Decisions uint64 `json:"decisions"`
	// Transitions and GateStallCycles are the gating transitions (and
	// their stalls) enacted while this phase governed.
	Transitions     uint64  `json:"transitions"`
	GateStallCycles float64 `json:"gate_stall_cycles"`
	// CDECycles is the CDE invocation cost charged while this phase
	// governed (its own misses' interrupts).
	CDECycles float64 `json:"cde_cycles"`
	// GatedCycles integrates (1 − powerFrac) per unit over the phase's
	// spans; EnergySavedJ converts it to leakage energy saved.
	GatedCycles  map[string]float64 `json:"gated_cycles"`
	EnergySavedJ map[string]float64 `json:"energy_saved_j"`
	// EnergySavedTotalJ sums EnergySavedJ across units.
	EnergySavedTotalJ float64 `json:"energy_saved_total_j"`
	// OverheadCycles is the slowdown the phase's decisions incurred
	// (gate stalls plus CDE invocations); OverheadJ is the whole-core
	// leakage burned during those cycles.
	OverheadCycles float64 `json:"overhead_cycles"`
	OverheadJ      float64 `json:"overhead_j"`
}

// Trail is the auditor's snapshot: the attribution table, every decision
// record, and the per-unit totals.
type Trail struct {
	ClockHz float64  `json:"clock_hz"`
	Units   []string `json:"units"`
	// Phases in order of first appearance ("(boot)" first when present).
	Phases []PhaseAttribution `json:"phases"`
	// Decisions in registration order.
	Decisions []DecisionRecord `json:"decisions"`
	// EnergySavedJ sums attributed savings per unit across phases;
	// EnergySavedTotalJ across units; OverheadJ the total slowdown cost.
	EnergySavedJ      map[string]float64 `json:"energy_saved_j"`
	EnergySavedTotalJ float64            `json:"energy_saved_total_j"`
	OverheadJ         float64            `json:"overhead_j"`
	// Metrics is the audit histograms' snapshot when the auditor owns a
	// private registry; nil when Config.Registry was supplied (the
	// histograms then live in that registry).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// phaseAgg is the mutable accumulator behind one PhaseAttribution.
type phaseAgg struct {
	att PhaseAttribution
}

// Auditor consumes the event stream and accumulates decision provenance.
// It is safe for concurrent emission (one mutex around all state), so a
// single auditor can observe several simulations at once — though
// attribution is only meaningful for runs whose streams follow each
// other; interleaved runs merge best-effort.
type Auditor struct {
	mu  sync.Mutex
	cfg Config

	unitNames []string
	leakW     map[string]float64

	reg    *obs.Registry
	ownReg bool

	hLatency   *obs.Histogram
	hResidency *obs.Histogram
	hScore     map[string]*obs.Histogram

	// units tracks unit power state; its first len(unitNames) slots are
	// the attributed units.
	units     *obs.Fold
	lastCycle float64
	governing *phaseAgg
	phases    map[string]*phaseAgg
	order     []*phaseAgg

	pending   []ScoreRecord
	decisions []DecisionRecord
	firstMiss map[string]uint64
	regWindow map[string]uint64
}

// New builds an auditor for the given design parameters.
func New(cfg Config) (*Auditor, error) {
	if cfg.ClockHz <= 0 {
		return nil, fmt.Errorf("audit: clock %v Hz", cfg.ClockHz)
	}
	if len(cfg.Units) == 0 {
		return nil, fmt.Errorf("audit: no units to attribute")
	}
	a := &Auditor{
		cfg:       cfg,
		leakW:     make(map[string]float64, len(cfg.Units)),
		phases:    make(map[string]*phaseAgg),
		hScore:    make(map[string]*obs.Histogram, len(cfg.Units)),
		firstMiss: make(map[string]uint64),
		regWindow: make(map[string]uint64),
	}
	for _, u := range cfg.Units {
		if u.Name == "" || u.LeakageW < 0 {
			return nil, fmt.Errorf("audit: bad unit spec %+v", u)
		}
		a.unitNames = append(a.unitNames, u.Name)
		a.leakW[u.Name] = u.LeakageW
	}
	// Every unit starts fully powered at cycle 0 (gating.NewUnit).
	a.units = obs.NewFold(a.unitNames, nil)
	a.reg = cfg.Registry
	if a.reg == nil {
		a.reg = obs.NewRegistry()
		a.ownReg = true
	}
	a.hLatency = a.reg.Histogram("audit.decision.latency.windows",
		1, 2, 3, 4, 6, 8, 12, 16, 32)
	a.hResidency = a.reg.Histogram("audit.pvt.residency.windows",
		1, 10, 100, 1e3, 1e4, 1e5)
	for _, u := range a.unitNames {
		a.hScore[u] = a.reg.Histogram("audit.score."+u,
			1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5)
	}
	a.governing = a.phase(BootPhase)
	return a, nil
}

// MustNew is New for callers with static configs.
func MustNew(cfg Config) *Auditor {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// phase returns the accumulator for key, creating it on first sight
// (under a.mu, except during New).
func (a *Auditor) phase(key string) *phaseAgg {
	p := a.phases[key]
	if p == nil {
		p = &phaseAgg{att: PhaseAttribution{
			Phase:        key,
			Policy:       pvt.FullOn.Encode(),
			PolicyStr:    pvt.FullOn.String(),
			GatedCycles:  make(map[string]float64, len(a.unitNames)),
			EnergySavedJ: make(map[string]float64, len(a.unitNames)),
		}}
		a.phases[key] = p
		a.order = append(a.order, p)
	}
	return p
}

// advance charges the span since the last audited cycle to the governing
// phase: wall cycles, plus per-unit gated cycles weighted by how far
// below full power each unit sat. Out-of-order cycles (retroactive
// timeout transitions, interleaved concurrent runs) are clamped.
func (a *Auditor) advance(cycle float64) {
	if cycle <= a.lastCycle {
		return
	}
	dt := cycle - a.lastCycle
	a.lastCycle = cycle
	a.governing.att.Cycles += dt
	fracs := a.units.Fracs()
	for i, u := range a.unitNames {
		if f := fracs[i]; f < 1 {
			a.governing.att.GatedCycles[u] += (1 - f) * dt
		}
	}
}

// sigKey renders the event's phase signature as the attribution key.
func sigKey(e obs.Event) string {
	if s := e.SigString(); s != "" {
		return s
	}
	return "(none)"
}

// Emit implements obs.Tracer.
func (a *Auditor) Emit(e obs.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Kind {
	case obs.KindWindowClose:
		a.advance(e.Cycle)
		a.governing.att.Windows++
		a.governing.att.Insns += e.Count
	case obs.KindPVTHit:
		a.advance(e.Cycle)
		p := a.phase(sigKey(e))
		p.att.Hits++
		p.att.Policy = e.Policy
		p.att.PolicyStr = pvt.Decode(e.Policy).String()
		a.governing = p
	case obs.KindPVTMiss:
		a.advance(e.Cycle)
		key := sigKey(e)
		p := a.phase(key)
		p.att.Misses++
		if _, seen := a.firstMiss[key]; !seen {
			a.firstMiss[key] = e.Window
		}
		// The miss's outcome (profiling config or registered policy)
		// governs the next span either way; the registration events that
		// follow refine the policy.
		a.governing = p
	case obs.KindPVTEvict:
		key := sigKey(e)
		if p, ok := a.phases[key]; ok {
			p.att.Evictions++
		}
		if rw, ok := a.regWindow[key]; ok && e.Window >= rw {
			a.hResidency.Observe(float64(e.Window - rw))
		}
	case obs.KindCDEInvoke:
		// Stamped after the interrupt cost was charged, so the advance
		// attributes the CDE cycles to the phase that missed.
		a.advance(e.Cycle)
		a.governing.att.CDECycles += e.Value
	case obs.KindCDEScore:
		a.pending = append(a.pending, ScoreRecord{
			Unit:           e.Unit,
			Metric:         e.Detail,
			Value:          e.Value,
			Threshold:      e.Prev,
			Threshold2:     e.Next,
			Outcome:        e.Policy,
			ProfileWindows: e.Count,
		})
		if h, ok := a.hScore[e.Unit]; ok {
			h.Observe(e.Value)
		}
	case obs.KindCDERegister:
		a.advance(e.Cycle)
		key := sigKey(e)
		p := a.phase(key)
		rec := DecisionRecord{
			Phase:          key,
			Window:         e.Window,
			Cycle:          e.Cycle,
			Path:           e.Detail,
			Policy:         e.Policy,
			PolicyStr:      pvt.Decode(e.Policy).String(),
			Scores:         a.pending,
			ProfileWindows: uint64(e.Value),
			Attempts:       e.Count,
		}
		a.pending = nil
		if fm, ok := a.firstMiss[key]; ok && e.Window >= fm {
			rec.LatencyWindows = e.Window - fm
			delete(a.firstMiss, key)
		}
		a.hLatency.Observe(float64(rec.LatencyWindows))
		a.decisions = append(a.decisions, rec)
		p.att.Decisions++
		p.att.Policy = e.Policy
		p.att.PolicyStr = rec.PolicyStr
		a.regWindow[key] = e.Window
		a.governing = p
	case obs.KindGate:
		a.advance(e.Cycle)
		a.governing.att.Transitions++
		a.governing.att.GateStallCycles += e.Stall
	case obs.KindRunEnd:
		// Close the final span at exactly the simulator's close-out
		// cycle. The next run starts from boot: cycle 0, no decision in
		// force, no profile or registration pending.
		a.advance(e.Cycle)
		a.lastCycle = 0
		a.governing = a.phase(BootPhase)
		a.pending = nil
		clear(a.firstMiss)
		clear(a.regWindow)
	}
	// Gating transitions and the run-end boot reset, after the span
	// they close was charged at the old power state.
	a.units.Emit(e)
}

// Snapshot derives the Trail from the state accumulated so far. The
// auditor remains usable afterwards.
func (a *Auditor) Snapshot() *Trail {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := &Trail{
		ClockHz:      a.cfg.ClockHz,
		Units:        append([]string(nil), a.unitNames...),
		EnergySavedJ: make(map[string]float64, len(a.unitNames)),
		Decisions:    append([]DecisionRecord(nil), a.decisions...),
	}
	savedFrac := 1 - power.GatedLeakageFrac
	for _, p := range a.order {
		att := p.att
		att.GatedCycles = make(map[string]float64, len(a.unitNames))
		att.EnergySavedJ = make(map[string]float64, len(a.unitNames))
		att.EnergySavedTotalJ = 0
		for _, u := range a.unitNames {
			gc := p.att.GatedCycles[u]
			att.GatedCycles[u] = gc
			saved := a.leakW[u] * savedFrac * gc / a.cfg.ClockHz
			att.EnergySavedJ[u] = saved
			att.EnergySavedTotalJ += saved
			t.EnergySavedJ[u] += saved
		}
		att.OverheadCycles = att.GateStallCycles + att.CDECycles
		att.OverheadJ = a.cfg.TotalLeakageW * att.OverheadCycles / a.cfg.ClockHz
		t.EnergySavedTotalJ += att.EnergySavedTotalJ
		t.OverheadJ += att.OverheadJ
		t.Phases = append(t.Phases, att)
	}
	if a.ownReg {
		t.Metrics = a.reg.Snapshot()
	}
	return t
}

// DecisionsJSON marshals the current Trail, implementing the serve
// layer's DecisionSource so /decisions?format=json can snapshot the
// auditor without importing this package.
func (a *Auditor) DecisionsJSON() ([]byte, error) {
	return json.MarshalIndent(a.Snapshot(), "", "  ")
}
