package sim

import (
	"context"
	"fmt"
	"strconv"

	"powerchop/internal/bpu"
	"powerchop/internal/cache"
	"powerchop/internal/isa"
	"powerchop/internal/obs/span"
	"powerchop/internal/phase"
	"powerchop/internal/program"
)

// Batched sweep execution: RunBatch drives N manager variants ("lanes")
// from a single pass over the shared compiled op stream. Lanes diverge in
// simulated time — different stall and gating cycles — so the walk is
// instruction-synchronous, not cycle-synchronous: each lane keeps its own
// cycle clock, window counters and phase state, and only the immutable
// program, its compiled form, and the lane-independent instruction
// dynamics are shared.
//
// The shared front-end owns everything whose evolution cannot depend on a
// lane's gating decisions:
//
//   - the Walker (region draws, branch outcomes, addresses): managers
//     never influence the draw sequence;
//   - the L1 cache: it sits above the gateable MLC, so its
//     hit/writeback/victim stream is a pure function of the address
//     stream;
//   - the small always-on branch predictor: it trains on every branch
//     whatever the gating state, so its verdicts are lane-independent.
//
// Everything else — the MLC (contents diverge under way gating), the
// large predictor (reset on gate-off), the BT runtime and its interrupt
// counts, HTB windows, the manager, the power accountant — is
// instantiated per lane, which is what makes every lane's Result
// byte-identical to a solo Run with the same Config (test-enforced for
// every registered policy; see batch_test.go and the policy conformance
// suite).

// Record-entry flag bits. One branch entry and one memory entry is
// appended per corresponding instruction, in op order. The recMLC* bits
// describe the shared never-gated reference MLC; a lane consumes them
// directly while "pristine" (it has never gated its MLC, so its contents
// are the reference's) and ignores them once diverged.
const (
	recTaken        = 1 << 0 // branch: outcome taken
	recSmallCorrect = 1 << 1 // branch: small predictor was correct
	recLargeCorrect = 1 << 2 // branch: never-gated reference large predictor was correct

	recL1Hit  = 1 << 0 // mem: L1 hit
	recL1WB   = 1 << 1 // mem: L1 evicted a dirty line (victim recorded)
	recWB2    = 1 << 2 // mem: the L1 victim's writeback displaced a dirty reference-MLC line
	recMLCHit = 1 << 3 // mem: the L1 miss hit in the reference MLC
	recMLCWB  = 1 << 4 // mem: the reference MLC's miss fill evicted a dirty line
)

// execRecord carries one region execution's lane-independent dynamics
// from the front-end to the lanes. The slices are reused across
// executions; lanes consume them through cursors (engine.replay*).
type execRecord struct {
	ri      int
	branch  []uint8  // per branch op: recTaken | recSmallCorrect | recLargeCorrect
	addrs   []uint64 // per memory op: effective address
	mem     []uint8  // per memory op: recL1Hit | recL1WB | recWB2 | recMLCHit | recMLCWB
	victims []uint64 // per recL1WB entry: the dirty L1 victim's address
}

// frontEnd is the shared first half of the pipeline: one walker, one L1,
// one never-gated reference MLC and one small predictor serving every
// lane in a batch group.
type frontEnd struct {
	walker   *program.Walker
	l1       *cache.Cache
	mlc      *cache.Cache    // full-power reference; lanes clone it on first gate
	small    *bpu.Bimodal    // always-on, so always lane-independent
	large    *bpu.Tournament // never-gated reference; gating off resets a lane's own
	compiled []program.CompiledRegion
	rec      execRecord
}

// newFrontEnd builds the shared front-end for a group of lanes whose
// cache geometry and small-predictor sizing agree (see batchKey).
func newFrontEnd(p *program.Program, key batchKey, compiled []program.CompiledRegion) (*frontEnd, error) {
	walker, err := program.NewWalker(p)
	if err != nil {
		return nil, err
	}
	return &frontEnd{
		walker:   walker,
		l1:       cache.New(key.l1),
		mlc:      cache.New(key.mlc),
		small:    bpu.NewBimodal(key.smallEntries, key.smallBTB),
		large:    bpu.NewTournament(key.large),
		compiled: compiled,
	}, nil
}

// record advances the walk by one region execution and captures its
// dynamics: the drawn region, each branch's outcome and small-predictor
// verdict, each memory op's address and L1 outcome. The draws happen in
// exactly the order a solo engine performs them (op order within the
// compiled body), so the master walker's state after execution k matches
// a solo walker's.
func (f *frontEnd) record() *execRecord {
	ri := f.walker.Next()
	r := &f.rec
	r.ri = ri
	r.branch = r.branch[:0]
	r.addrs = r.addrs[:0]
	r.mem = r.mem[:0]
	r.victims = r.victims[:0]
	cr := &f.compiled[ri]
	for i := range cr.Ops {
		op := &cr.Ops[i]
		switch op.Inst.Kind {
		case isa.Branch:
			taken := f.walker.BranchOutcome(ri, op.Inst.Sel)
			var bits uint8
			if taken {
				bits |= recTaken
			}
			if f.small.Access(op.Inst.PC, taken) {
				bits |= recSmallCorrect
			}
			if f.large.Access(op.Inst.PC, taken) {
				bits |= recLargeCorrect
			}
			r.branch = append(r.branch, bits)
		case isa.Load, isa.Store:
			addr := f.walker.Address(ri, op.Inst.Sel)
			hit, wb, victim := f.l1.Access(addr, op.Inst.Kind == isa.Store)
			var bits uint8
			if hit {
				bits |= recL1Hit
			}
			if wb {
				bits |= recL1WB
				r.victims = append(r.victims, victim)
				// Drive the reference MLC exactly as Hierarchy.Access
				// would a never-gated lane's: victim writeback first,
				// then the miss lookup.
				if _, wb2, _ := f.mlc.Access(victim, true); wb2 {
					bits |= recWB2
				}
			}
			if !hit {
				mlcHit, mlcWB, _ := f.mlc.Access(addr, false)
				if mlcHit {
					bits |= recMLCHit
				}
				if mlcWB {
					bits |= recMLCWB
				}
			}
			r.addrs = append(r.addrs, addr)
			r.mem = append(r.mem, bits)
		}
	}
	return r
}

// batchKey groups lanes that can share one front-end: the front-end's
// L1, reference MLC and small predictor are built from the design, so
// lanes must agree on that slice of it. (The program and its compiled
// stream are shared across the whole call. Latencies stay per-lane: the
// record carries outcomes, each lane prices them from its own design.)
type batchKey struct {
	l1           cache.Config
	mlc          cache.Config
	smallEntries int
	smallBTB     int
	large        bpu.TournamentConfig
}

func keyOf(cfg *Config) batchKey {
	return batchKey{
		l1:           cfg.Design.Mem.L1,
		mlc:          cfg.Design.Mem.MLC,
		smallEntries: cfg.Design.BPU.SmallEntries,
		smallBTB:     cfg.Design.BPU.SmallBTB,
		large:        cfg.Design.BPU.Large,
	}
}

// soloOnly reports whether a lane must take the solo Run path: observer
// attachments (tracer, metrics, audit) and the naive-walk oracle are
// defined in terms of a single run's event stream and walker, so they
// are never batched.
func soloOnly(cfg *Config) bool {
	return cfg.Tracer != nil || cfg.Metrics || cfg.Audit || cfg.naiveWalk
}

// RunBatch executes one program under each configuration and returns the
// measurements in input order. Each lane's Result is byte-identical to
// what Run(p, cfgs[i]) returns; the batch exists purely to amortize the
// shared front-end work (walking, L1 simulation, small-predictor
// training, region-stream decode) across lanes.
//
// Every configuration needs its own Manager instance, exactly as with
// separate Run calls — managers are stateful. Lanes that attach an
// observer (Tracer, Metrics, Audit) fall back to a solo Run
// transparently, as does a batch of one.
func RunBatch(p *program.Program, cfgs []Config) ([]*Result, error) {
	local := make([]Config, len(cfgs))
	copy(local, cfgs)
	for i := range local {
		if local[i].Phase == (phase.Config{}) {
			local[i].Phase = phase.DefaultConfig()
		}
		if err := local[i].Validate(); err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
	}
	results := make([]*Result, len(local))

	// Partition: solo-forced lanes run through Run; the rest group by
	// front-end shape. Groups of one also take the solo path — the batch
	// machinery has nothing to amortize there.
	groups := make(map[batchKey][]int)
	order := make([]batchKey, 0, 4)
	var solo []int
	for i := range local {
		if soloOnly(&local[i]) {
			solo = append(solo, i)
			continue
		}
		k := keyOf(&local[i])
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		if len(groups[k]) == 1 {
			solo = append(solo, groups[k][0])
			delete(groups, k)
		}
	}

	var compiled []program.CompiledRegion
	if len(groups) > 0 {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		compiled = program.CompileAll(p)
	}
	for _, k := range order {
		lanes, ok := groups[k]
		if !ok {
			continue
		}
		if err := runGroup(p, k, compiled, local, lanes, results); err != nil {
			return nil, err
		}
	}
	for _, i := range solo {
		r, err := Run(p, local[i])
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		results[i] = r
	}
	return results, nil
}

// runGroup drives one front-end group: build a lane engine per config,
// boot its manager, then walk the program once, handing each recorded
// region execution to every lane still inside its translation budget.
func runGroup(p *program.Program, key batchKey, compiled []program.CompiledRegion, cfgs []Config, lanes []int, results []*Result) (err error) {
	if ctx := groupContext(cfgs, lanes); ctx != nil {
		_, sp := span.Start(ctx, "simbatch",
			"bench="+p.Name, "lanes="+strconv.Itoa(len(lanes)))
		defer func() { sp.EndErr(err) }()
	}
	fe, err := newFrontEnd(p, key, compiled)
	if err != nil {
		return err
	}
	engines := make([]*engine, len(lanes))
	issue := make([]float64, len(lanes))
	var maxT uint64
	for j, i := range lanes {
		s, err := newEngineWith(p, cfgs[i], nil, compiled)
		if err != nil {
			return fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		// The lane starts pristine: its MLC contents and large-predictor
		// state are the shared references' until its first gating
		// transition, which builds the lane's own MLC (set before the
		// boot directive, so a boot-time gate diverges from the empty
		// references, exactly the solo starting state).
		s.mlc.sharedMLC = fe.mlc
		s.bpu.pristineLarge = true
		boot := cfgs[i].Manager.Boot()
		s.absorbDirective(boot)
		s.applyPolicy(boot.Policy)
		engines[j] = s
		issue[j] = 1 / cfgs[i].Design.IssueWidth
		if cfgs[i].MaxTranslations > maxT {
			maxT = cfgs[i].MaxTranslations
		}
	}
	for fe.walker.Executed() < maxT {
		rec := fe.record()
		for j, s := range engines {
			if s.laneExec >= s.cfg.MaxTranslations {
				continue
			}
			s.laneExec++
			s.replay = rec
			s.replayB, s.replayM, s.replayV = 0, 0, 0
			s.executeRegion(rec.ri, issue[j])
		}
	}
	for j, i := range lanes {
		results[i] = engines[j].finish()
	}
	return nil
}

// groupContext picks the first lane context carrying a span, so a batched
// group records one "simbatch" span where solo runs record per-run "sim"
// spans.
func groupContext(cfgs []Config, lanes []int) context.Context {
	for _, i := range lanes {
		if cfgs[i].Context != nil {
			return cfgs[i].Context
		}
	}
	return nil
}
