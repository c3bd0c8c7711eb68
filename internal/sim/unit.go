package sim

import (
	"sort"

	"powerchop/internal/arch"
	"powerchop/internal/bt"
	"powerchop/internal/cache"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/gating"
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
// predictor is gated to the always-on small local predictor. A lane owns
// neither predictor: while its large predictor is on, node is the
// front-end's predictor powered on when the lane's was, and each branch's
// verdict is read from out, that node's verdicts or the small
// predictor's for the current execution.
type bpuUnit struct {
	e *engine
	g *gating.Unit

	node    *bpuNode
	out     []uint8
	next    int
	penalty [2]float64 // cycles added for a wrong (0) or right (1) verdict
	pending uint64     // lane branches since the predictor's last power change

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
}

func newBPUUnit(e *engine) *bpuUnit {
	return &bpuUnit{
		e:       e,
		g:       gating.NewUnit(arch.UnitBPU, 1),
		penalty: [2]float64{e.design.MispredictPenalty, 0},
	}
}

// largeOn reports whether the large predictor is powered.
func (b *bpuUnit) largeOn() bool { return b.node != nil }

// setLargeOn powers the large predictor on or off. Off loses its state;
// powering on joins the front-end's predictor node for this execution
// boundary, which starts from reset.
func (b *bpuUnit) setLargeOn(on bool) {
	if on == b.largeOn() {
		return
	}
	b.file()
	if on {
		b.node = b.e.fe.powerOn()
	} else {
		b.e.fe.powerOff(b.node)
		b.node = nil
	}
}

// file adds the lane's branches since the last power change to the
// access tally of the level they ran at.
func (b *bpuUnit) file() {
	if b.node != nil {
		b.largeAcc += b.pending
	} else {
		b.smallAcc += b.pending
	}
	b.pending = 0
}

// startExec points the lane at its verdicts for the current execution.
func (b *bpuUnit) startExec(rec *execRecord) {
	b.out, b.next = rec.small, 0
	if b.node != nil {
		b.out = b.node.out
	}
}

func (b *bpuUnit) gate() *gating.Unit { return b.g }

func (b *bpuUnit) enact(policy pvt.Policy) {
	if b.idle != nil || b.curIdle != nil {
		b.enactIdle(policy)
		return
	}
	if policy.BPUOn == b.largeOn() {
		return
	}
	stall := b.e.design.GateStallBPU
	b.e.stallFor(stall)
	b.setLargeOn(policy.BPUOn)
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
		b.setLargeOn(true)
		b.curIdle = nil
		b.e.stallFor(stall)
		b.e.chargeSwitch(b.g, 1, b.e.cycles, stall)
		return
	}
	if b.curIdle != nil && b.curIdle.PowerFrac == b.idle.PowerFrac {
		return
	}
	stall := b.e.design.GateStallBPU + b.idle.EntryCycles
	b.setLargeOn(false)
	b.curIdle = b.idle
	b.e.stallFor(stall)
	b.e.chargeSwitch(b.g, b.idle.PowerFrac, b.e.cycles, stall)
}

func (b *bpuUnit) absorbDirective(d core.Directive) { b.idle = d.BPUIdle }

func (b *bpuUnit) fillPolicy(p *pvt.Policy) { p.BPUOn = b.largeOn() }

func (b *bpuUnit) windowProfile(prof *cde.WindowProfile) {
	prof.Branches = b.winBranches
	prof.Mispredicts = b.winMispred
	prof.LargeBPUActive = b.largeOn()
	b.winBranches, b.winMispred = 0, 0
}

func (b *bpuUnit) windowBoundary() {}

func (b *bpuUnit) sampleInterval(*Sample) {}

func (b *bpuUnit) flushAccesses(acct *power.Accountant) {
	b.file()
	acct.AddAccesses(arch.UnitBPU, b.largeAcc, 1)
	acct.AddAccesses(arch.UnitBPU, b.smallAcc, bpuOffPowerFrac)
}

func (b *bpuUnit) report(r *Result) {
	r.BPU = unitActivity(b.g, bpuOffPowerFrac, 0)
	r.Branches = b.branches
	r.Mispredicts = b.mispredicts
}

// replayBranch prices one branch from its verdict, with no predictor
// access and no branch on the outcome. The mispredict penalty is added
// after the issue slot, as a separate step; adding 0 leaves the clock as
// is.
func (b *bpuUnit) replayBranch(issueCycle float64) {
	v := b.out[b.next] & 1
	b.next++
	b.e.uops++
	b.e.coreAccesses++
	b.e.cycles += issueCycle
	b.branches++
	b.winBranches++
	b.pending++
	wrong := uint64(1 - v)
	b.mispredicts += wrong
	b.winMispred += wrong
	b.e.cycles += b.penalty[v]
}

// mlcUnit manages the middle-level cache: three-state way gating with
// dirty-line writeback on downsizing. A lane owns no cache: node is the
// front-end's MLC for the lane's gating history, and each memory op's
// outcome is read from out, that node's outcomes for the current
// execution.
type mlcUnit struct {
	e *engine
	g *gating.Unit

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

	node    *mlcNode
	out     []uint8
	next    int
	cost    [4]float64 // issue slot + stall per outcome (cache.L1Miss | cache.MLCHit)
	pending uint64     // lane MLC accesses since the last power change
}

// fracCount tallies accesses at one power fraction.
type fracCount struct {
	frac float64
	n    uint64
}

// newMLCUnit builds the unit with its cost table; the lane is put on the
// front-end's root MLC node when it joins the group.
func newMLCUnit(e *engine) *mlcUnit {
	m := &mlcUnit{
		e:         e,
		g:         gating.NewUnit(arch.UnitMLC, 1),
		accByFrac: make([]fracCount, 0, 4),
	}
	issue := 1 / e.design.IssueWidth
	for o := range m.cost {
		m.cost[o] = issue + e.design.Mem.Stall(uint8(o))
	}
	return m
}

// activeWays is the MLC's powered way count.
func (m *mlcUnit) activeWays() int { return m.node.c.ActiveWays() }

// addAccesses records n MLC accesses at the given power fraction.
func (m *mlcUnit) addAccesses(frac float64, n uint64) {
	for i := range m.accByFrac {
		if m.accByFrac[i].frac == frac {
			m.accByFrac[i].n += n
			return
		}
	}
	m.accByFrac = append(m.accByFrac, fracCount{frac: frac, n: n})
}

// file adds the lane's accesses since the last power change to the tally
// of the fraction they ran at.
func (m *mlcUnit) file() {
	if m.pending > 0 {
		m.addAccesses(m.g.PowerFrac(), m.pending)
		m.pending = 0
	}
}

// startExec points the lane at its node's outcomes for the current
// execution.
func (m *mlcUnit) startExec() {
	m.out, m.next = m.node.out, 0
}

func (m *mlcUnit) gate() *gating.Unit { return m.g }

func (m *mlcUnit) enact(policy pvt.Policy) {
	totalWays := m.e.design.Mem.MLC.Ways
	wantWays := policy.MLC.Ways(totalWays)
	if wantWays == m.activeWays() {
		return
	}
	m.file()
	var dirty int
	m.node, dirty = m.e.fe.gateMLC(m.node, wantWays)
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
	m.file()
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

// replayMem prices one memory op from its node's outcome, with no cache
// access and no branch on the outcome: the issue slot and stall come
// from the lane's cost table in one addition, the MLC access joins the
// pending tally and a hit counts one in each hit counter.
func (m *mlcUnit) replayMem() {
	o := m.out[m.next]
	m.next++
	m.e.uops++
	m.e.coreAccesses++
	m.e.cycles += m.cost[o&3]
	m.memOps++
	m.pending += uint64(o & cache.L1Miss)
	hit := uint64(o >> 1 & 1)
	m.mlcHits += hit
	m.winL2Hits += hit
	m.intMLCHits += hit
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
