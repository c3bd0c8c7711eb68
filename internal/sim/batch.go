package sim

import (
	"context"
	"fmt"
	"slices"
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
// It also owns every lane's MLC and large predictor, as nodes. An MLC's
// contents depend only on the shared address stream and on its own way
// transitions, so lanes whose MLCs made the same transitions at the same
// executions hold byte-identical caches and share one MLC node. A large
// predictor loses its state when gated off, so its tables depend only on
// the branch stream since its last power-on, and lanes that powered it
// on at the same execution share one predictor node. The front-end
// drives each live node once per execution; a lane prices its ops from
// its nodes' outcomes. Everything else — the BT runtime and its interrupt
// counts, HTB windows, the manager, the power accountant — is per lane,
// which is what makes every lane's Result byte-identical to a solo Run
// with the same Config (test-enforced for every registered policy; see
// batch_test.go and the policy conformance suite).

// Memory-op outcome bits. The record carries each memory op's L1 outcome
// and each MLC node adds its own hit bit, so one byte of a node's out
// slice is everything a lane needs to price the op.
const (
	memL1Miss = 1 << 0 // the L1 missed, so the op accessed the MLC
	memMLCHit = 1 << 1 // the access hit in the node's MLC
)

// execRecord carries one region execution's lane-independent dynamics
// from the walker and L1 pass to the nodes and lanes. The slices are
// reused across executions.
type execRecord struct {
	ri     int
	pcs    []uint32 // per branch op: PC
	taken  []bool   // per branch op: outcome
	small  []uint8  // per branch op: 1 when the small predictor was right
	mem    []uint8  // per memory op: memL1Miss or 0
	misses []l1Miss // per L1 miss, in op order
}

// l1Miss is one memory op the L1 passed to the MLC: the dirty victim's
// writeback (when wb) and then the miss lookup, the order Hierarchy.Access
// drives the MLC in.
type l1Miss struct {
	at     int // index among the execution's memory ops
	wb     bool
	victim uint64
	addr   uint64
}

// mlcNode is one simulated MLC for one distinct gating history, with the
// outcome of each memory op of the current execution and the number of
// lanes whose MLC it is.
type mlcNode struct {
	c     *cache.Cache
	out   []uint8 // per memory op: memL1Miss | memMLCHit
	lanes int
}

// mlcChild is a node gated from another during the current execution
// boundary. A lane gating the same parent to the same way count there
// joins it and is charged the same flushed dirty lines.
type mlcChild struct {
	from, node *mlcNode
	dirty      int
}

// bpuNode is one large predictor powered on at one execution boundary,
// with its verdict on each branch of the current execution.
type bpuNode struct {
	t     *bpu.Tournament
	out   []uint8 // per branch op: 1 when the prediction was right
	lanes int
}

// nodeStats counts the nodes a front-end made and the node-executions it
// simulated, so tests can check sharing without timing it.
type nodeStats struct {
	mlcNodes, bpuNodes   int
	mlcDriven, bpuDriven uint64
}

// frontEnd is the shared first half of the pipeline: one walker, one L1
// and one small predictor serving every lane in a batch group, plus the
// live MLC and large-predictor nodes the lanes sit on.
type frontEnd struct {
	walker   *program.Walker
	l1       *cache.Cache
	small    *bpu.Bimodal
	large    bpu.TournamentConfig
	compiled []program.CompiledRegion
	rec      execRecord

	mlcs  []*mlcNode // live MLC nodes, the never-gated root first
	bpus  []*bpuNode // live large-predictor nodes
	fresh []mlcChild // MLC nodes gated since the last execution
	on    *bpuNode   // the predictor powered on since the last execution
	stats nodeStats
}

// newFrontEnd builds the shared front-end for a group of lanes whose
// cache geometry and predictor sizing agree (see batchKey), with the root
// MLC node: the never-gated MLC every lane starts on.
func newFrontEnd(p *program.Program, key batchKey, compiled []program.CompiledRegion) (*frontEnd, error) {
	walker, err := program.NewWalker(p)
	if err != nil {
		return nil, err
	}
	return &frontEnd{
		walker:   walker,
		l1:       cache.New(key.l1),
		small:    bpu.NewBimodal(key.smallEntries, key.smallBTB),
		large:    key.large,
		compiled: compiled,
		mlcs:     []*mlcNode{{c: cache.New(key.mlc)}},
		stats:    nodeStats{mlcNodes: 1},
	}, nil
}

// record advances the walk by one region execution and captures its
// dynamics: the drawn region, each branch's PC, outcome and
// small-predictor verdict, each memory op's L1 outcome. The draws happen
// in exactly the order a solo engine performs them (op order within the
// compiled body), so the master walker's state after execution k matches
// a solo walker's. It then drives every live node through the execution.
func (f *frontEnd) record() *execRecord {
	ri := f.walker.Next()
	r := &f.rec
	r.ri = ri
	r.pcs, r.taken, r.small = r.pcs[:0], r.taken[:0], r.small[:0]
	r.mem, r.misses = r.mem[:0], r.misses[:0]
	cr := &f.compiled[ri]
	for i := range cr.Ops {
		op := &cr.Ops[i]
		switch op.Inst.Kind {
		case isa.Branch:
			taken := f.walker.BranchOutcome(ri, op.Inst.Sel)
			r.pcs = append(r.pcs, op.Inst.PC)
			r.taken = append(r.taken, taken)
			r.small = append(r.small, bit(f.small.Access(op.Inst.PC, taken)))
		case isa.Load, isa.Store:
			addr := f.walker.Address(ri, op.Inst.Sel)
			hit, wb, victim := f.l1.Access(addr, op.Inst.Kind == isa.Store)
			if hit {
				r.mem = append(r.mem, 0)
				continue
			}
			r.misses = append(r.misses, l1Miss{at: len(r.mem), wb: wb, victim: victim, addr: addr})
			r.mem = append(r.mem, memL1Miss)
		}
	}
	clear(f.fresh)
	f.fresh, f.on = f.fresh[:0], nil
	f.recordMLC()
	f.recordLarge()
	return r
}

// recordMLC drives every live MLC node through the execution's L1 misses.
func (f *frontEnd) recordMLC() {
	r := &f.rec
	for _, n := range f.mlcs {
		n.out = append(n.out[:0], r.mem...)
		for i := range r.misses {
			m := &r.misses[i]
			if m.wb {
				n.c.Access(m.victim, true)
			}
			if hit, _, _ := n.c.Access(m.addr, false); hit {
				n.out[m.at] |= memMLCHit
			}
		}
	}
	f.stats.mlcDriven += uint64(len(f.mlcs))
}

// recordLarge drives every live large-predictor node through the
// execution's branches.
func (f *frontEnd) recordLarge() {
	r := &f.rec
	for _, n := range f.bpus {
		n.out = n.out[:0]
		for i, pc := range r.pcs {
			n.out = append(n.out, bit(n.t.Access(pc, r.taken[i])))
		}
	}
	f.stats.bpuDriven += uint64(len(f.bpus))
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// gateMLC moves a lane's MLC from node n to ways active ways at the
// current execution boundary and returns the lane's node and the dirty
// lines the gating flushed. The lane joins the node another lane already
// gated from n to the same ways here; failing that, a lane alone on n
// gates n in place, and any other lane gates a clone of it.
func (f *frontEnd) gateMLC(n *mlcNode, ways int) (*mlcNode, int) {
	for _, c := range f.fresh {
		if c.from == n && c.node.lanes > 0 && c.node.c.ActiveWays() == ways {
			f.leaveMLC(n)
			c.node.lanes++
			return c.node, c.dirty
		}
	}
	if n.lanes == 1 {
		return n, n.c.SetActiveWays(ways)
	}
	n.lanes--
	c := &mlcNode{c: n.c.Clone(), lanes: 1}
	dirty := c.c.SetActiveWays(ways)
	f.mlcs = append(f.mlcs, c)
	f.fresh = append(f.fresh, mlcChild{from: n, node: c, dirty: dirty})
	f.stats.mlcNodes++
	return c, dirty
}

// leaveMLC takes one lane off node n, retiring the node once no lane is
// on it.
func (f *frontEnd) leaveMLC(n *mlcNode) {
	if n.lanes--; n.lanes == 0 {
		f.mlcs = without(f.mlcs, n)
	}
}

// powerOn puts a lane's large predictor on the node powered on at the
// current execution boundary, making a fresh one if no lane has powered
// on here yet.
func (f *frontEnd) powerOn() *bpuNode {
	if n := f.on; n != nil && n.lanes > 0 {
		n.lanes++
		return n
	}
	n := &bpuNode{t: bpu.NewTournament(f.large), lanes: 1}
	f.bpus = append(f.bpus, n)
	f.on = n
	f.stats.bpuNodes++
	return n
}

// powerOff takes one lane off predictor node n, retiring the node once
// no lane is on it.
func (f *frontEnd) powerOff(n *bpuNode) {
	if n.lanes--; n.lanes == 0 {
		f.bpus = without(f.bpus, n)
	}
}

// without removes x from s, keeping the order of the rest.
func without[T comparable](s []T, x T) []T {
	i := slices.Index(s, x)
	return slices.Delete(s, i, i+1)
}

// batchKey groups lanes that can share one front-end: the front-end's
// L1, small predictor and nodes are built from the design, so lanes must
// agree on that slice of it. (The program and its compiled
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
// training, region-stream decode) across lanes, and to simulate the MLC
// and large predictor once per distinct gating history rather than once
// per lane.
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
		if _, err := runGroup(p, k, compiled, local, lanes, results); err != nil {
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

// runGroup drives one front-end group: build a lane engine per config
// on the root MLC node, boot its manager, then walk the program once,
// handing each recorded region execution to every lane still inside its
// translation budget. It returns the front-end's node counts.
func runGroup(p *program.Program, key batchKey, compiled []program.CompiledRegion, cfgs []Config, lanes []int, results []*Result) (stats nodeStats, err error) {
	if ctx := groupContext(cfgs, lanes); ctx != nil {
		_, sp := span.Start(ctx, "simbatch",
			"bench="+p.Name, "lanes="+strconv.Itoa(len(lanes)))
		defer func() { sp.EndErr(err) }()
	}
	fe, err := newFrontEnd(p, key, compiled)
	if err != nil {
		return stats, err
	}
	engines := make([]*engine, len(lanes))
	issue := make([]float64, len(lanes))
	var maxT uint64
	for j, i := range lanes {
		s, err := newEngineWith(p, cfgs[i], nil, compiled)
		if err != nil {
			return stats, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		s.join(fe)
		engines[j] = s
		issue[j] = 1 / cfgs[i].Design.IssueWidth
		if cfgs[i].MaxTranslations > maxT {
			maxT = cfgs[i].MaxTranslations
		}
	}
	// Every lane is on its starting nodes before any boots, so a
	// boot-time gate starts from the empty root MLC and a boot-powered
	// predictor from reset, exactly the solo state, and no lane gates a
	// node in place that a later lane would start on.
	for j, i := range lanes {
		boot := cfgs[i].Manager.Boot()
		engines[j].absorbDirective(boot)
		engines[j].applyPolicy(boot.Policy)
	}
	for fe.walker.Executed() < maxT {
		rec := fe.record()
		for j, s := range engines {
			if s.laneExec >= s.cfg.MaxTranslations {
				continue
			}
			s.laneExec++
			s.mlc.startExec()
			s.bpu.startExec(rec)
			s.executeRegion(rec.ri, issue[j])
			if s.laneExec == s.cfg.MaxTranslations {
				s.leave()
			}
		}
	}
	for j, i := range lanes {
		results[i] = engines[j].finish()
	}
	return fe.stats, nil
}

// join puts a batched lane on the front-end: its MLC on the root node
// and, when the design boots it powered, its large predictor on the node
// powered on before the first execution.
func (s *engine) join(fe *frontEnd) {
	s.fe = fe
	s.mlc.node = fe.mlcs[0]
	s.mlc.node.lanes++
	if s.design.BPU.LargeOnAtBoot {
		s.bpu.node = fe.powerOn()
	}
}

// leave takes a finished lane off its nodes, so the front-end stops
// simulating state only it read. Powering the predictor off here only
// files its tallies and releases the node: the run is over, so nothing
// is charged.
func (s *engine) leave() {
	s.fe.leaveMLC(s.mlc.node)
	s.mlc.node = nil
	s.bpu.setLargeOn(false)
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
