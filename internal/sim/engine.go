package sim

import (
	"powerchop/internal/arch"
	"powerchop/internal/bt"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/isa"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/phase"
	"powerchop/internal/power"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
)

// engine is the live simulation: the clock, the issue pipeline, the BT
// runtime and the window machinery. Everything unit-specific — gating,
// timeout bookkeeping, per-window profiling counters, dynamic-access
// tallies — lives in the managedUnit components (unit.go); the engine
// only dispatches instruction events to them and closes windows.
type engine struct {
	cfg    Config
	design arch.Design
	prog   *program.Program

	btSys   *bt.System
	htb     *phase.HTB
	acct    *power.Accountant
	quality *phase.QualityTracker

	// compiled holds the run-length-encoded form of each region body,
	// indexed like prog.Regions; built once at engine setup.
	compiled []program.CompiledRegion

	// The managed units in enactment order (VPU, BPU, MLC). The typed
	// fields alias the same components for instruction dispatch.
	units []managedUnit
	vpu   *vpuUnit
	bpu   *bpuUnit
	mlc   *mlcUnit

	// Observability: tracer is the stamped event sink (nil when off);
	// collector feeds Result.Metrics; auditor feeds Result.Audit;
	// lastXl8 detects fresh translations.
	tracer    obs.Tracer
	collector *obs.Collector
	auditor   *audit.Auditor
	lastXl8   uint64

	cycles     float64
	guestInsns uint64
	uops       uint64
	gateStalls float64
	cdeCycles  float64

	// Current directive state.
	policy pvt.Policy
	// fullWindowStreak counts consecutive completed windows that ran
	// entirely at the full measurement configuration (large BPU, all MLC
	// ways); measurements are warm after two such windows.
	fullWindowStreak int

	// Window instruction counter (unit-specific window counters live in
	// the unit components).
	winInsns uint64

	// Per-window scratch, kept on the engine because passing their
	// addresses through the managedUnit interface would otherwise heap-
	// allocate a fresh copy every window boundary.
	profBuf   cde.WindowProfile
	policyBuf pvt.Policy

	// Core-pipeline dynamic-energy access tally, flushed at the end.
	coreAccesses uint64

	// Sampling.
	sampleAt    uint64
	lastSampleI uint64
	lastSampleC float64
	samples     []Sample

	// Figure 15 shards.
	shardInsns uint64
	shards     VectorShards

	// Lane state (batch.go): the group's front-end walks the program and
	// owns the MLC and large-predictor nodes the units read their
	// outcomes from; executed counts the lane's region executions.
	fe       *frontEnd
	executed uint64
}

// newEngine assembles a lane's engine and its managed units for a
// validated configuration around the group's compiled-region stream,
// which every lane shares read-only.
func newEngine(p *program.Program, cfg Config, compiled []program.CompiledRegion) (*engine, error) {
	d := cfg.Design
	btSys, err := bt.New(bt.Config{
		HotThreshold:           d.HotThreshold,
		InterpCPI:              d.InterpCPI,
		TranslateCyclesPerInsn: d.TranslateCyclesPerInsn,
	}, p)
	if err != nil {
		return nil, err
	}

	s := &engine{
		cfg:      cfg,
		design:   d,
		prog:     p,
		btSys:    btSys,
		htb:      phase.NewHTB(cfg.Phase),
		acct:     power.NewAccountant(d.ClockHz),
		compiled: compiled,

		policy:   pvt.FullOn,
		sampleAt: cfg.SampleInterval,
	}
	if cfg.SampleInterval > 0 {
		// Preallocate the sample series from the run budget: at most
		// MaxTranslations executions of the longest body, one sample per
		// interval. Clamped so a pathological budget cannot balloon the
		// allocation; append still grows past the estimate if needed.
		maxLen := 0
		for _, r := range p.Regions {
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
		}
		est := cfg.MaxTranslations*uint64(maxLen)/cfg.SampleInterval + 1
		if est > 1<<16 {
			est = 1 << 16
		}
		s.samples = make([]Sample, 0, est)
	}
	s.vpu = newVPUUnit(s)
	s.bpu = newBPUUnit(s)
	s.mlc = newMLCUnit(s)
	s.units = []managedUnit{s.vpu, s.bpu, s.mlc}

	for _, spec := range d.UnitSpecs() {
		s.acct.AddUnit(spec)
	}
	// PowerChop's own hardware: the HTB and PVT draw constant power.
	s.acct.AddUnit(power.UnitSpec{Name: arch.UnitHTB, LeakageW: power.HTBPowerW})
	if cfg.TrackQuality {
		s.quality = phase.NewQualityTracker(cfg.Phase.WindowSize)
	}
	s.wireObservability()
	return s, nil
}

// wireObservability assembles the run's event sink — the configured
// tracer plus, when metrics are on, the standard collector — wraps it so
// every event is stamped with the simulation clock, and hands it to each
// instrumented component. With no tracer and no metrics everything stays
// nil and the hot path pays only dead nil-checks.
func (s *engine) wireObservability() {
	var sinks []obs.Tracer
	if s.cfg.Tracer != nil {
		sinks = append(sinks, s.cfg.Tracer)
	}
	if s.cfg.Metrics {
		s.collector = obs.NewCollector()
		sinks = append(sinks, s.collector)
	}
	if s.cfg.Audit {
		s.auditor = audit.MustNew(s.auditConfig())
		sinks = append(sinks, s.auditor)
	}
	t := obs.Multi(sinks...)
	if t == nil {
		return
	}
	t = obs.Stamped(t, func() (float64, uint64) { return s.cycles, s.htb.Windows() })
	s.tracer = t
	s.htb.SetTracer(t)
	for _, u := range s.units {
		u.gate().SetTracer(t)
	}
	if m, ok := s.cfg.Manager.(interface{ SetTracer(obs.Tracer) }); ok {
		m.SetTracer(t)
	}
}

// auditConfig prices the auditor at the run's design point. When
// metrics are on the audit histograms share the collector's registry so
// one snapshot carries both.
func (s *engine) auditConfig() audit.Config {
	cfg := audit.DesignConfig(s.design)
	if s.collector != nil {
		cfg.Registry = s.collector.Registry()
	}
	return cfg
}

// applyPolicy enacts a gating policy by delegating to each managed unit,
// which charges its own transition stalls, state management costs and
// switch energies.
func (s *engine) applyPolicy(policy pvt.Policy) {
	for _, u := range s.units {
		u.enact(policy)
	}
	s.policy = policy
}

// absorbDirective hands each unit its slice of a manager directive's
// non-policy state (the VPU's timeout semantics) before the policy is
// enacted.
func (s *engine) absorbDirective(d core.Directive) {
	for _, u := range s.units {
		u.absorbDirective(d)
	}
}

// currentPolicy reconstructs the policy currently in effect from unit
// state.
func (s *engine) currentPolicy() pvt.Policy {
	s.policyBuf = pvt.Policy{}
	for _, u := range s.units {
		u.fillPolicy(&s.policyBuf)
	}
	return s.policyBuf
}

// stallFor charges stall cycles attributable to gating transitions.
func (s *engine) stallFor(cycles float64) {
	s.cycles += cycles
	s.gateStalls += cycles
}

// executeRegion runs one execution of region ri through the BT system,
// the compiled op stream and the window machinery. The units price each
// branch and memory op from the front-end's outcomes for the execution
// (see unit.go).
func (s *engine) executeRegion(ri int, issueCycle float64) {
	tr, extra := s.btSys.Execute(ri)
	s.cycles += extra
	if s.tracer != nil {
		s.traceInstall(ri)
	}
	cr := &s.compiled[ri]

	for i := range cr.Ops {
		op := &cr.Ops[i]
		if op.Run > 0 {
			s.execScalarRun(uint64(op.Run), issueCycle)
		}
		s.guestInsns++
		s.winInsns++
		s.shardInsns++
		switch op.Inst.Kind {
		case isa.Vector:
			s.vpu.execVector(issueCycle)
		case isa.Branch:
			s.bpu.replayBranch(issueCycle)
		default: // isa.Load, isa.Store
			s.mlc.replayMem()
		}
		s.postInst()
	}
	if cr.Tail > 0 {
		s.execScalarRun(uint64(cr.Tail), issueCycle)
	}

	if tr != nil {
		if s.htb.Record(tr.ID, uint64(tr.Insns)) {
			s.endWindow()
			s.reportProgress(false)
		}
	}
}

// execScalarRun executes n consecutive scalar instructions. All
// exact-integer bookkeeping is batched per stretch, with shard and
// sample boundaries hoisted out of the loop as arithmetic on the run
// length, so the per-instruction work reduces to the cycle accumulation.
// That accumulation must stay one issue slot at a time: adding
// n*issueCycle in one step would round differently, and results are
// required to be byte-identical to the per-instruction walk that
// compile_test.go keeps as the oracle.
func (s *engine) execScalarRun(n uint64, issueCycle float64) {
	sampling := s.cfg.SampleInterval > 0
	for n > 0 {
		// The boundary checks fire exactly when a per-instruction walk's
		// would: shardInsns stays below 1000 and guestInsns below
		// sampleAt between instructions, so both deltas are positive and
		// step >= 1.
		step := n
		if until := 1000 - s.shardInsns; until < step {
			step = until
		}
		if sampling {
			if until := s.sampleAt - s.guestInsns; until < step {
				step = until
			}
		}
		s.guestInsns += step
		s.winInsns += step
		s.shardInsns += step
		s.uops += step
		s.coreAccesses += step
		c := s.cycles
		for i := uint64(0); i < step; i++ {
			c += issueCycle
		}
		s.cycles = c
		n -= step
		if s.shardInsns >= 1000 {
			s.closeShard()
		}
		if sampling && s.guestInsns >= s.sampleAt {
			s.takeSample()
		}
	}
}

// postInst runs the per-instruction boundary checks after a branch,
// memory or vector op: close the 1000-instruction shard, then take a due
// sample — in that order, since both can trigger on the same
// instruction.
func (s *engine) postInst() {
	if s.shardInsns >= 1000 {
		s.closeShard()
	}
	if s.cfg.SampleInterval > 0 && s.guestInsns >= s.sampleAt {
		s.takeSample()
	}
}

// traceInstall emits a translation-install event when the preceding
// Execute compiled a fresh translation. Execute returns nil on the
// install execution, so fresh translations are detected by a counter
// delta.
func (s *engine) traceInstall(ri int) {
	if n := s.btSys.Translations(); n > s.lastXl8 {
		s.lastXl8 = n
		if nt := s.btSys.Translation(ri); nt != nil {
			s.tracer.Emit(obs.Event{
				Kind:   obs.KindTranslate,
				Detail: "install",
				Count:  uint64(nt.ID),
				Value:  float64(nt.Insns),
			})
		}
	}
}

// reportProgress delivers a read-only snapshot to the configured
// progress callback. It must stay free of simulation side effects.
func (s *engine) reportProgress(done bool) {
	if s.cfg.Progress == nil {
		return
	}
	s.cfg.Progress(Progress{
		Cycle:           s.cycles,
		GuestInsns:      s.guestInsns,
		Translations:    s.executed,
		MaxTranslations: s.cfg.MaxTranslations,
		Windows:         s.htb.Windows(),
		Done:            done,
	})
}

// finish closes out accounting and assembles the Result.
func (s *engine) finish() *Result {
	s.reportProgress(true)
	if s.tracer != nil {
		// Mark the end of the run at the exact cycle residency tracking
		// closes out below, so trace consumers (the auditor, recorded
		// JSONL replays) can close their own interval accounting at the
		// same instant.
		s.tracer.Emit(obs.Event{Kind: obs.KindRunEnd})
	}
	// Close residency tracking.
	for _, u := range s.units {
		u.gate().CloseOut(s.cycles)
	}
	for _, u := range s.units {
		g := u.gate()
		for _, level := range g.Levels() {
			s.acct.AddResidency(g.Name(), level, g.Residency(level))
		}
	}
	s.acct.AddResidency(arch.UnitCore, 1, s.cycles)
	s.acct.AddResidency(arch.UnitHTB, 1, s.cycles)

	// Flush dynamic access tallies: the core pipeline's, then each unit's.
	s.acct.AddAccesses(arch.UnitCore, s.coreAccesses, 1)
	for _, u := range s.units {
		u.flushAccesses(s.acct)
	}

	rep := s.acct.Report(s.cycles)

	r := &Result{
		Benchmark: s.prog.Name,
		Suite:     s.prog.Suite,
		Arch:      s.design.Name,
		Manager:   s.cfg.Manager.Name(),

		Cycles:     s.cycles,
		GuestInsns: s.guestInsns,
		Uops:       s.uops,
		Seconds:    rep.Seconds,

		Power: rep,

		BT:          s.btSys.Stats(),
		PVTMissInts: s.btSys.Nucleus().Count(bt.IntPVTMiss),
		CDECycles:   s.cdeCycles,
		GateStalls:  s.gateStalls,
		Windows:     s.htb.Windows(),

		Samples: s.samples,
		Shards:  s.shards,
	}
	for _, u := range s.units {
		u.report(r)
	}
	if s.cycles > 0 {
		r.IPC = float64(s.guestInsns) / s.cycles
	}
	pc, ok := s.cfg.Manager.(*core.PowerChop)
	if !ok {
		// Wrapping managers (e.g. DarkGates) expose their inner
		// PowerChop for PVT/CDE reporting.
		if w, okw := s.cfg.Manager.(interface{ Unwrap() *core.PowerChop }); okw {
			pc, ok = w.Unwrap(), true
		}
	}
	if ok {
		r.PVT = pc.PVT().Stats()
		r.CDE = pc.Engine().Stats()
		r.KnownPhases = pc.Engine().KnownPhases()
	}
	if s.quality != nil {
		r.QualityMeanFrac = s.quality.MeanDistanceFrac()
		r.QualityMaxFrac = s.quality.MaxDistanceFrac()
		r.QualityPhases = s.quality.DistinctSignatures()
		r.QualityCompared = s.quality.Comparisons()
	}
	if s.collector != nil {
		r.Metrics = s.collector.Snapshot()
	}
	if s.auditor != nil {
		r.Audit = s.auditor.Snapshot()
	}
	return r
}
