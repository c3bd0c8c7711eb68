package sim

import (
	"sort"

	"powerchop/internal/arch"
	"powerchop/internal/bpu"
	"powerchop/internal/bt"
	"powerchop/internal/cache"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/gating"
	"powerchop/internal/isa"
	"powerchop/internal/power"
	"powerchop/internal/pvt"
	"powerchop/internal/vpu"
)

// managedUnit is one gateable unit under the engine's management. Each
// component owns the unit's model, its gating tracker, the enactment of
// policy directives (transition stalls, state-management costs, switch
// energy, gate-switch interrupts), its per-window profiling counters,
// its dynamic-energy access tallies, and its contribution to the
// WindowProfile handed to the manager and to the final Result. The
// engine never branches on a unit's identity: adding a managed unit
// means implementing this interface and appending it to engine.units.
type managedUnit interface {
	// gate returns the unit's gating tracker, used by the engine to wire
	// tracing and close out residency.
	gate() *gating.Unit
	// enact applies the unit's slice of a gating policy, charging
	// transition stalls, state costs and switch energy through the
	// engine, and raising the gate-switch interrupt.
	enact(policy pvt.Policy)
	// absorbDirective takes the unit's non-policy directive state (the
	// VPU's timeout period) from a manager directive.
	absorbDirective(d core.Directive)
	// fillPolicy writes the unit's current power state into a policy.
	fillPolicy(p *pvt.Policy)
	// windowProfile contributes the unit's counters and power state to a
	// closing window's profile and resets the per-window counters.
	windowProfile(prof *cde.WindowProfile)
	// windowBoundary runs the unit's own boundary machinery (the VPU's
	// idle-timeout check) before the manager is consulted.
	windowBoundary()
	// sampleInterval contributes the unit's per-interval counters to a
	// time-series sample and resets them.
	sampleInterval(smp *Sample)
	// flushAccesses flushes the unit's dynamic-energy access tallies
	// into the power accountant at the end of the run.
	flushAccesses(acct *power.Accountant)
	// report writes the unit's activity summary and whole-run counters
	// into the Result.
	report(r *Result)
}

// bpuOffPowerFrac models the gated-off BPU: the small local predictor and
// its small BTB stay powered, roughly a tenth of the BPU's area.
const bpuOffPowerFrac = 0.1

func boolFrac(on bool) float64 {
	if on {
		return 1
	}
	return 0
}

// chargeSwitch performs the common policy-enactment tail: record the
// gating transition, account its switch energy, and raise the BT
// nucleus's gate-switch interrupt. The caller has already charged the
// stall (unit enactment sequences differ in when the stall lands
// relative to the state change).
func (s *engine) chargeSwitch(g *gating.Unit, frac, cycle, stallCycles float64) {
	g.Transition(frac, cycle, stallCycles)
	s.acct.AddSwitch(g.Name())
	s.btSys.Nucleus().Raise(bt.IntGateSwitch, 0)
}

// vpuUnit manages the vector processing unit: phase-directed on/off
// gating with register-file save/restore, plus the hardware idle-timeout
// semantics of the Section V-E baseline.
type vpuUnit struct {
	e    *engine
	unit *vpu.Unit
	g    *gating.Unit

	// timeout, when positive, selects idle-timeout semantics: the unit is
	// retroactively gated off once it has sat idle that many cycles and
	// woken on demand by the next vector op.
	timeout         float64
	lastVectorCycle float64
	idleGated       bool

	// idle is the manager's hierarchical idle-state descriptor for the
	// next gated window (nil for classic single-level gating); curIdle is
	// the state the unit currently resides in. Both nil means the classic
	// enactment path runs untouched.
	idle    *core.IdleState
	curIdle *core.IdleState

	// Whole-run, per-window, per-sample-interval and per-shard counters.
	vectorOps uint64
	winSIMD   uint64
	intVecOps uint64
	shardVec  uint64

	// Dynamic-energy access tally.
	accesses uint64
}

func newVPUUnit(e *engine) *vpuUnit {
	return &vpuUnit{
		e:    e,
		unit: vpu.New(e.design.VPU),
		g:    gating.NewUnit(arch.UnitVPU, 1),
	}
}

func (v *vpuUnit) gate() *gating.Unit { return v.g }

func (v *vpuUnit) enact(policy pvt.Policy) {
	// Skipped in timeout mode, where the idleness machinery owns the unit.
	if v.timeout != 0 {
		return
	}
	// Hierarchical idle-state semantics take over while the manager is
	// supplying descriptors or the unit still resides in one.
	if v.idle != nil || v.curIdle != nil {
		v.enactIdle(policy)
		return
	}
	if policy.VPUOn == v.unit.On() {
		return
	}
	stall := v.e.design.GateStallVPU + v.unit.SetOn(policy.VPUOn)
	v.e.stallFor(stall)
	v.e.chargeSwitch(v.g, boolFrac(policy.VPUOn), v.e.cycles, stall)
}

// enactIdle applies the hierarchical idle-state semantics: the policy's
// off bit sends the unit to the descriptor's state; transition stalls
// are the base gate stall plus the descriptor's entry/exit extras (the
// descriptors, not the VPU's save/restore machinery, price state
// management here).
func (v *vpuUnit) enactIdle(policy pvt.Policy) {
	if policy.VPUOn || v.idle == nil {
		// Wake to full power.
		if v.curIdle == nil {
			return
		}
		stall := v.e.design.GateStallVPU + v.curIdle.ExitCycles
		v.unit.SetOn(true)
		v.curIdle = nil
		v.e.stallFor(stall)
		v.e.chargeSwitch(v.g, 1, v.e.cycles, stall)
		return
	}
	// Descend to (or hold) the requested rung.
	if v.curIdle != nil && v.curIdle.PowerFrac == v.idle.PowerFrac {
		return
	}
	stall := v.e.design.GateStallVPU + v.idle.EntryCycles
	v.unit.SetOn(false)
	v.curIdle = v.idle
	v.e.stallFor(stall)
	v.e.chargeSwitch(v.g, v.idle.PowerFrac, v.e.cycles, stall)
}

func (v *vpuUnit) absorbDirective(d core.Directive) {
	v.timeout = d.VPUTimeout
	v.idle = d.VPUIdle
}

func (v *vpuUnit) fillPolicy(p *pvt.Policy) { p.VPUOn = v.unit.On() }

func (v *vpuUnit) windowProfile(prof *cde.WindowProfile) {
	prof.SIMDInsns = v.winSIMD
	prof.VPUOn = v.unit.On()
	v.winSIMD = 0
}

func (v *vpuUnit) windowBoundary() { v.idleGateOff() }

func (v *vpuUnit) sampleInterval(smp *Sample) {
	smp.VectorOps = v.intVecOps
	v.intVecOps = 0
}

func (v *vpuUnit) flushAccesses(acct *power.Accountant) {
	acct.AddAccesses(arch.UnitVPU, v.accesses, 1)
}

func (v *vpuUnit) report(r *Result) {
	r.VPU = unitActivity(v.g, 0, 0)
	r.VectorOps = v.vectorOps
}

// execVector models one guest vector instruction under the current VPU
// state and manager semantics.
func (v *vpuUnit) execVector(issueCycle float64) {
	v.vectorOps++
	v.winSIMD++
	v.intVecOps++
	v.shardVec++

	if v.timeout > 0 {
		v.timeoutVectorOp()
	}
	slots := v.unit.Execute()
	if slots == 1 {
		v.accesses++
	} else {
		// Scalar emulation: the expansion uops run on the core pipeline.
		v.e.coreAccesses += uint64(slots)
	}
	v.e.uops += uint64(slots)
	v.e.cycles += float64(slots) * issueCycle
}

// takeShardVec returns and resets the vector-op count of the closing
// 1000-instruction shard.
func (v *vpuUnit) takeShardVec() uint64 {
	n := v.shardVec
	v.shardVec = 0
	return n
}

// idleGateOff is the timeout baseline's single off-gate path, shared by
// the on-demand wake sequence and the window-boundary check: if the unit
// has crossed the idle threshold, it is gated off retroactively at the
// crossing (saving the register file paused execution then; the stall is
// charged now).
func (v *vpuUnit) idleGateOff() {
	if v.timeout == 0 || v.idleGated {
		return
	}
	idleStart := v.lastVectorCycle + v.timeout
	if v.e.cycles <= idleStart {
		return
	}
	offStall := v.e.design.GateStallVPU + v.e.design.VPU.SaveRestoreCycles
	v.g.Transition(0, idleStart, offStall)
	v.e.acct.AddSwitch(arch.UnitVPU)
	v.unit.SetOn(false)
	v.e.stallFor(offStall)
	v.idleGated = true
}

// timeoutVectorOp implements the hardware-timeout baseline's wake path: if
// the VPU was (or should have been) gated off for idleness, it is woken
// with full gating penalties before the vector op can execute.
func (v *vpuUnit) timeoutVectorOp() {
	v.idleGateOff()
	if v.idleGated {
		// Wake on demand.
		wakeStall := v.e.design.GateStallVPU + v.unit.SetOn(true)
		v.g.Transition(1, v.e.cycles, wakeStall)
		v.e.acct.AddSwitch(arch.UnitVPU)
		v.e.stallFor(wakeStall)
		v.idleGated = false
	}
	v.lastVectorCycle = v.e.cycles
}

// bpuUnit manages the branch prediction unit: the large tournament
// predictor is gated to the always-on small local predictor.
type bpuUnit struct {
	e    *engine
	unit *bpu.Unit
	g    *gating.Unit

	branches    uint64
	mispredicts uint64
	winBranches uint64
	winMispred  uint64

	// Hierarchical idle-state descriptor and residency (see vpuUnit).
	idle    *core.IdleState
	curIdle *core.IdleState

	// Dynamic-energy access tallies at the two power levels.
	largeAcc uint64
	smallAcc uint64

	// pristineLarge marks a batched lane whose large predictor has never
	// been gated off: its state equals the batch group's never-gated
	// reference, so branches consume the recorded reference verdict
	// instead of training a private copy. The first gate-off clears the
	// flag — gating resets the large predictor, so from that point the
	// lane's own (reset-state) Tournament is exactly what a solo run
	// would hold. Always false on the solo path.
	pristineLarge bool
}

func newBPUUnit(e *engine) *bpuUnit {
	return &bpuUnit{
		e:    e,
		unit: bpu.NewUnit(e.design.BPU),
		g:    gating.NewUnit(arch.UnitBPU, 1),
	}
}

func (b *bpuUnit) gate() *gating.Unit { return b.g }

func (b *bpuUnit) enact(policy pvt.Policy) {
	if b.idle != nil || b.curIdle != nil {
		b.enactIdle(policy)
		return
	}
	if policy.BPUOn == b.unit.LargeOn() {
		return
	}
	stall := b.e.design.GateStallBPU
	b.e.stallFor(stall)
	if !policy.BPUOn {
		b.pristineLarge = false
	}
	b.unit.SetLargeOn(policy.BPUOn)
	frac := 1.0
	if !policy.BPUOn {
		frac = bpuOffPowerFrac
	}
	b.e.chargeSwitch(b.g, frac, b.e.cycles, stall)
}

// enactIdle is the BPU's hierarchical idle-state path: the large
// predictor descends the descriptor ladder while gated (the small local
// predictor stays on throughout, as in classic gating).
func (b *bpuUnit) enactIdle(policy pvt.Policy) {
	if policy.BPUOn || b.idle == nil {
		if b.curIdle == nil {
			return
		}
		stall := b.e.design.GateStallBPU + b.curIdle.ExitCycles
		b.unit.SetLargeOn(true)
		b.curIdle = nil
		b.e.stallFor(stall)
		b.e.chargeSwitch(b.g, 1, b.e.cycles, stall)
		return
	}
	if b.curIdle != nil && b.curIdle.PowerFrac == b.idle.PowerFrac {
		return
	}
	stall := b.e.design.GateStallBPU + b.idle.EntryCycles
	b.pristineLarge = false
	b.unit.SetLargeOn(false)
	b.curIdle = b.idle
	b.e.stallFor(stall)
	b.e.chargeSwitch(b.g, b.idle.PowerFrac, b.e.cycles, stall)
}

func (b *bpuUnit) absorbDirective(d core.Directive) { b.idle = d.BPUIdle }

func (b *bpuUnit) fillPolicy(p *pvt.Policy) { p.BPUOn = b.unit.LargeOn() }

func (b *bpuUnit) windowProfile(prof *cde.WindowProfile) {
	prof.Branches = b.winBranches
	prof.Mispredicts = b.winMispred
	prof.LargeBPUActive = b.unit.LargeOn()
	b.winBranches, b.winMispred = 0, 0
}

func (b *bpuUnit) windowBoundary() {}

func (b *bpuUnit) sampleInterval(*Sample) {}

func (b *bpuUnit) flushAccesses(acct *power.Accountant) {
	acct.AddAccesses(arch.UnitBPU, b.largeAcc, 1)
	acct.AddAccesses(arch.UnitBPU, b.smallAcc, bpuOffPowerFrac)
}

func (b *bpuUnit) report(r *Result) {
	r.BPU = unitActivity(b.g, bpuOffPowerFrac, 0)
	r.Branches = b.branches
	r.Mispredicts = b.mispredicts
}

// execBranch models one guest branch through the active predictor. On the
// batched path the outcome and the small predictor's verdict come from the
// shared front-end record: the always-on small predictor sees the same
// (PC, outcome) stream whatever this lane's gating history, so its state —
// and hence its verdict — is lane-independent; only the gateable large
// predictor (reset on every gate-off) is consulted per lane.
func (b *bpuUnit) execBranch(ri int, inst isa.Inst, issueCycle float64) {
	var taken, correct bool
	if rec := b.e.replay; rec != nil {
		bits := rec.branch[b.e.replayB]
		b.e.replayB++
		taken = bits&recTaken != 0
		switch {
		case !b.unit.LargeOn():
			correct = bits&recSmallCorrect != 0
		case b.pristineLarge:
			correct = bits&recLargeCorrect != 0
		default:
			correct = b.unit.Large.Access(inst.PC, taken)
		}
	} else {
		taken = b.e.walker.BranchOutcome(ri, inst.Sel)
		correct = b.unit.Access(inst.PC, taken)
	}
	b.e.uops++
	b.e.coreAccesses++
	b.e.cycles += issueCycle
	b.branches++
	b.winBranches++
	if b.unit.LargeOn() {
		b.largeAcc++
	} else {
		b.smallAcc++
	}
	if !correct {
		b.mispredicts++
		b.winMispred++
		b.e.cycles += b.e.design.MispredictPenalty
	}
}

// mlcUnit manages the middle-level cache: three-state way gating with
// dirty-line writeback on downsizing.
type mlcUnit struct {
	e    *engine
	hier *cache.Hierarchy
	g    *gating.Unit

	memOps     uint64
	mlcHits    uint64
	winL2Hits  uint64
	intMLCHits uint64

	// Dynamic-energy access tallies per power level. Only a handful of
	// distinct fractions ever occur (full, half-ways, one-way), so a
	// linearly scanned slice beats a map lookup in the hot path and
	// allocates nothing once the levels have been seen.
	accByFrac []fracCount
	// accesses is the whole-run MLC access count, filled at flush time.
	accesses uint64

	// Batched-lane pristine state. While sharedMLC is non-nil the lane
	// has never gated its MLC, so its contents equal the batch group's
	// never-gated reference: memory ops consume the recorded reference
	// outcomes without touching any cache arrays, with the lane's memory
	// traffic tracked in prReads/prWrites, and the lane has no hierarchy
	// of its own. The first gating transition builds the lane's
	// hierarchy around a clone of the reference and clears sharedMLC
	// (see diverge). Cached latencies keep the pristine hot path free of
	// config-struct copies.
	sharedMLC *cache.Cache
	prReads   uint64
	prWrites  uint64
	mlcLat    float64
	memLat    float64
}

// fracCount tallies accesses at one power fraction.
type fracCount struct {
	frac float64
	n    uint64
}

// newMLCUnit builds the unit. A solo run owns its hierarchy from the
// start; a batched lane (nil walker) starts pristine on the group's
// reference MLC, which runGroup attaches, and builds a hierarchy only
// when it diverges.
func newMLCUnit(e *engine) *mlcUnit {
	m := &mlcUnit{
		e:         e,
		g:         gating.NewUnit(arch.UnitMLC, 1),
		accByFrac: make([]fracCount, 0, 4),
		mlcLat:    e.design.Mem.MLCLatency,
		memLat:    e.design.Mem.MemLatency,
	}
	if e.walker != nil {
		m.hier = cache.NewHierarchy(e.design.Mem)
	}
	return m
}

// activeWays is the MLC's powered way count. A pristine lane has never
// gated, so all of its ways are on.
func (m *mlcUnit) activeWays() int {
	if m.sharedMLC != nil {
		return m.e.design.Mem.MLC.Ways
	}
	return m.hier.MLC().ActiveWays()
}

// addAccess records one MLC access at the given power fraction.
func (m *mlcUnit) addAccess(frac float64) {
	for i := range m.accByFrac {
		if m.accByFrac[i].frac == frac {
			m.accByFrac[i].n++
			return
		}
	}
	m.accByFrac = append(m.accByFrac, fracCount{frac: frac, n: 1})
}

func (m *mlcUnit) gate() *gating.Unit { return m.g }

func (m *mlcUnit) enact(policy pvt.Policy) {
	totalWays := m.e.design.Mem.MLC.Ways
	wantWays := policy.MLC.Ways(totalWays)
	if wantWays == m.activeWays() {
		return
	}
	m.diverge()
	dirty := m.hier.GateMLC(wantWays)
	stall := m.e.design.GateStallMLC + float64(dirty)*m.e.design.WritebackCyclesPerLine
	m.e.stallFor(stall)
	m.e.chargeSwitch(m.g, policy.MLC.PowerFrac(totalWays), m.e.cycles, stall)
}

func (m *mlcUnit) absorbDirective(core.Directive) {}

func (m *mlcUnit) fillPolicy(p *pvt.Policy) {
	switch w := m.activeWays(); {
	case w == m.e.design.Mem.MLC.Ways:
		p.MLC = pvt.MLCAll
	case w == 1:
		p.MLC = pvt.MLCOne
	default:
		p.MLC = pvt.MLCHalf
	}
}

func (m *mlcUnit) windowProfile(prof *cde.WindowProfile) {
	prof.L2Hits = m.winL2Hits
	prof.MLCFullyOn = m.activeWays() == m.e.design.Mem.MLC.Ways
	m.winL2Hits = 0
}

func (m *mlcUnit) windowBoundary() {}

func (m *mlcUnit) sampleInterval(smp *Sample) {
	smp.MLCHits = m.intMLCHits
	m.intMLCHits = 0
}

func (m *mlcUnit) flushAccesses(acct *power.Accountant) {
	// Flush levels in ascending order so the floating-point accumulation
	// over power fractions is reproducible run to run.
	sort.Slice(m.accByFrac, func(i, j int) bool {
		return m.accByFrac[i].frac < m.accByFrac[j].frac
	})
	for _, fc := range m.accByFrac {
		acct.AddAccesses(arch.UnitMLC, fc.n, fc.frac)
		m.accesses += fc.n
	}
}

func (m *mlcUnit) report(r *Result) {
	oneFrac := 1.0 / float64(m.e.design.Mem.MLC.Ways)
	r.MLC = unitActivity(m.g, oneFrac, 0.5)
	r.MemOps = m.memOps
	r.MLCHits = m.mlcHits
	r.MLCAccesses = m.accesses
}

// execMem models one guest load or store through the cache hierarchy. On
// the batched path the address and the L1's hit/writeback/victim outcome
// come from the shared front-end record — the L1 sits above the gateable
// MLC, so its behaviour is lane-independent — and only this lane's MLC
// (whose contents diverge under way gating) is consulted, via ReplayAccess.
func (m *mlcUnit) execMem(ri int, inst isa.Inst, issueCycle float64) {
	var res cache.AccessResult
	if rec := m.e.replay; rec != nil {
		bits := rec.mem[m.e.replayM]
		addr := rec.addrs[m.e.replayM]
		m.e.replayM++
		var victim uint64
		if bits&recL1WB != 0 {
			victim = rec.victims[m.e.replayV]
			m.e.replayV++
		}
		if m.sharedMLC != nil {
			res = m.replayPristine(bits)
		} else {
			res = m.hier.ReplayAccess(addr, bits&recL1Hit != 0, bits&recL1WB != 0, victim)
		}
	} else {
		addr := m.e.walker.Address(ri, inst.Sel)
		res = m.hier.Access(addr, inst.Kind == isa.Store)
	}
	m.e.uops++
	m.e.coreAccesses++
	m.e.cycles += issueCycle + res.StallCycles
	m.memOps++
	if res.MLCAccessed {
		m.addAccess(m.g.PowerFrac())
	}
	if res.MLCHit {
		m.mlcHits++
		m.winL2Hits++
		m.intMLCHits++
	}
}

// replayPristine reconstructs a memory op's AccessResult for a lane that
// has never gated its MLC, purely from the recorded reference-MLC
// outcome bits — no cache arrays are touched, which is where batching's
// memory-path amortization comes from. The lane's main-memory traffic is
// tracked so diverge can seed the hierarchy's counters.
func (m *mlcUnit) replayPristine(bits uint8) cache.AccessResult {
	var res cache.AccessResult
	res.L1Hit = bits&recL1Hit != 0
	if bits&recL1WB != 0 {
		res.Writebacks++
		res.MLCAccessed = true
		if bits&recWB2 != 0 {
			res.Writebacks++
			m.prWrites++
		}
	}
	if res.L1Hit {
		return res
	}
	res.MLCAccessed = true
	if bits&recMLCWB != 0 {
		res.Writebacks++
		m.prWrites++
	}
	if bits&recMLCHit != 0 {
		res.MLCHit = true
		res.StallCycles = m.mlcLat
	} else {
		res.MemAccessed = true
		m.prReads++
		res.StallCycles = m.memLat
	}
	return res
}

// diverge forks the lane-private MLC off the batch group's never-gated
// reference just before the lane's first gating transition mutates it.
// Gating is enacted between region executions (at boot or a window
// boundary), and the front-end records execution k before any lane
// processes it, so the reference's contents at that instant are exactly
// what this lane's own MLC would hold. Solo runs and already-diverged
// lanes are no-ops.
func (m *mlcUnit) diverge() {
	if m.sharedMLC == nil {
		return
	}
	m.hier = cache.NewReplayHierarchy(m.e.design.Mem, m.sharedMLC.Clone(), m.prReads, m.prWrites)
	m.sharedMLC = nil
}

// unitActivity converts a gating tracker into the reported summary.
func unitActivity(g *gating.Unit, deepLevel, halfLevel float64) UnitActivity {
	a := UnitActivity{
		GatedFrac:    g.GatedFrac(),
		SwitchesPerM: g.SwitchesPerMillionCycles(),
		Switches:     g.Switches(),
	}
	t := g.TotalCycles()
	if t > 0 {
		a.OneWayFrac = g.Residency(deepLevel) / t
		if halfLevel > 0 {
			a.HalfFrac = g.Residency(halfLevel) / t
		}
	}
	return a
}
