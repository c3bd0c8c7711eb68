// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each FigureN/TableN function runs the required
// simulations through a memoizing Runner — several figures share the same
// underlying runs — and returns a structured result that renders as a
// plain-text chart shaped like the paper's figure.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
	"powerchop/internal/phase"
	"powerchop/internal/policy"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// defaultBatchCap bounds the lanes one batched simulation group drives
// when Runner.Batch is zero. Batching amortizes the shared front-end
// (trace walk, L1, small predictor) across lanes; past ~16 lanes the
// remaining per-lane work dominates and wider groups only cost memory.
const defaultBatchCap = 16

// Runner executes and memoizes benchmark runs. Figures share a Runner so
// that, e.g., the PowerChop runs behind Figures 9-14 happen once; the
// root package's Run, RunBatch, Compare and Tune submit their lanes to a
// per-call Runner, so every simulation takes the same path (see Run).
//
// The Runner is safe for concurrent use: simultaneous requests for the
// same lane are deduplicated singleflight-style (one caller simulates,
// the rest wait for its result), and the total number of in-flight
// simulation groups is bounded by the runner's job count. Each
// simulation itself is single-threaded and deterministic, so the set of
// memoized results is identical however calls interleave.
type Runner struct {
	mu      sync.Mutex
	scale   float64
	flights map[rescache.Key]*flight
	// benches memoizes each benchmark's lane template: figures request
	// the same benchmark many times, and building and hashing its program
	// costs about as much as a warm cache hit.
	benches map[string]Lane
	sem     chan struct{}
	sims    atomic.Uint64

	// Tracer, when non-nil, is threaded into every simulation the runner
	// launches (memoized results are not re-run, so set it before the
	// first call). Figures run many benchmarks through one Runner, so a
	// shared sink must be safe for concurrent emission. With a Tracer
	// set every lane simulates alone and bypasses the cache.
	Tracer obs.Tracer

	// Progress, when non-nil, receives run lifecycle updates: queued when
	// a flight is registered, simulating once it holds a job slot (then
	// again at every window boundary with live counters), and done or
	// error at completion. Updates for different runs arrive
	// concurrently (one goroutine per simulation group), so the callback
	// must be safe for concurrent use. Like Tracer it is a pure observer
	// and must be set before the first call.
	Progress func(obs.RunUpdate)

	// Cache, when non-nil, is a persistent result store consulted before
	// each simulation and filled after it: a hit skips the run entirely
	// and never occupies a job slot. Lanes with an observer attached, and
	// every lane when a Tracer is set, bypass it (and the bypass is
	// counted) — a cached result cannot replay the event stream. Set it
	// before the first call.
	Cache *rescache.Cache

	// Batch caps how many cold lanes one batched simulation group
	// (sim.RunBatch) drives: 0 selects the default cap, 1 gives every
	// lane a group of its own. Batching is a pure wall-clock
	// optimization — results, cache entries and singleflight keys are
	// identical either way. Set it before the first call.
	Batch int
}

// flight is one memo entry: the simulation's result once done is
// closed, and the dedup point for concurrent callers until then.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewParallelRunner returns a runner that allows at most jobs concurrent
// simulation groups (jobs <= 0 selects GOMAXPROCS). jobs bounds
// simulation work only; any number of callers may block waiting on
// flights without occupying a job slot. scale multiplies the default run
// length of two full passes through each benchmark's phase schedule; 1
// is the calibrated default, smaller values shorten smoke runs.
func NewParallelRunner(scale float64, jobs int) *Runner {
	if scale <= 0 {
		scale = 1
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		scale:   scale,
		flights: map[rescache.Key]*flight{},
		benches: map[string]Lane{},
		sem:     make(chan struct{}, jobs),
	}
}

// Jobs returns the maximum number of concurrent simulation groups.
func (r *Runner) Jobs() int { return cap(r.sem) }

// Simulations returns how many simulations the runner has actually
// executed (cache hits and deduplicated waiters do not count).
func (r *Runner) Simulations() uint64 { return r.sims.Load() }

// runLength scales the default run of two schedule passes, but never
// below one full pass: every phase must execute at least once for the
// figures to be meaningful.
func (r *Runner) runLength(schedule int) uint64 {
	n := uint64(float64(2*schedule) * r.scale)
	if n < uint64(schedule) {
		n = uint64(schedule)
	}
	return n
}

// DesignFor picks the benchmark's design point: MobileBench runs on the
// mobile core, everything else on the server core (Section V-A).
func DesignFor(b workload.Benchmark) arch.Design {
	if b.Mobile {
		return arch.Mobile()
	}
	return arch.Server()
}

// Lane is one simulation request: the program and design it runs on, its
// length and sampling, the manager it runs under and the key that manager
// files under, plus any observers. Figure runs and the root package's
// Run, RunBatch, Compare and Tune are all lanes submitted through Run.
type Lane struct {
	// Program is the built guest program.
	Program *program.Program
	// Design is the processor design point.
	Design arch.Design
	// RunLen is the run length in region executions.
	RunLen uint64
	// SampleInterval, when positive, records a sample every that many
	// guest instructions.
	SampleInterval uint64
	// Quality enables the Figure 8 translation-quality tracker.
	Quality bool
	// Phase is the HTB configuration; the zero value selects the
	// paper's (phase.DefaultConfig).
	Phase phase.Config
	// Manager builds a fresh manager for the run (managers are stateful
	// and never shared between runs).
	Manager func() (core.Manager, error)
	// ManagerKey names the manager in the lane's cache key and in
	// progress reports: a policy fingerprint, or the name of a
	// study-only setup.
	ManagerKey string
	// Silent lanes send no progress reports: sampled, quality-tracking
	// and telemetry extras that would otherwise share a progress row with
	// the canonical run of their manager.
	Silent bool

	// Observers. A lane carrying any of them runs alone and is never
	// cached or deduplicated — a cached result cannot replay the stream.

	// TraceWriter receives the run's events as JSONL, flushed when the
	// run ends.
	TraceWriter io.Writer
	// Tracer receives the run's event stream.
	Tracer obs.Tracer
	// Metrics and Audit attach the metrics snapshot and the decision
	// provenance trail to the result.
	Metrics, Audit bool

	// digest and design are the program digest and design fingerprint
	// of the benchmark template the lane was copied from, if any.
	digest, design string
}

// observed reports whether the lane carries an observer of its own.
func (l *Lane) observed() bool {
	return l.TraceWriter != nil || l.Tracer != nil || l.Metrics || l.Audit
}

// alone reports whether the lane must simulate in a group of its own and
// bypass the cache: it is observed, or the runner's Tracer wants every
// run's own event stream.
func (r *Runner) alone(l *Lane) bool { return l.observed() || r.Tracer != nil }

// hash returns the costly fields of the lane's key, the program digest
// and the design fingerprint, taken from the benchmark template the lane
// was copied from when there is one.
func (l *Lane) hash() (digest, design string) {
	if l.digest != "" {
		return l.digest, l.design
	}
	return l.Program.Digest(), rescache.Fingerprint(l.Design)
}

// key is the lane's persistent-cache key, which also keys its flight.
// It is the only place a rescache.Key is built, so every caller that
// issues the same simulation files it under the same entry. The phase
// configuration is named only when it is not the paper's, so a lane at
// the default finds the cache entries written without one.
func (l *Lane) key() rescache.Key {
	digest, design := l.hash()
	cfg := fmt.Sprintf("translations=%d sample=%d quality=%t", l.RunLen, l.SampleInterval, l.Quality)
	if ph := l.Phase; ph != (phase.Config{}) && ph != phase.DefaultConfig() {
		cfg += fmt.Sprintf(" htb=%d window=%d signature=%d", ph.Capacity, ph.WindowSize, ph.SignatureLen)
	}
	return rescache.Key{Program: digest, Design: design, Manager: l.ManagerKey, Config: cfg}
}

// PolicyLane returns the lane template of a registered policy at a
// parameter assignment; the caller fills in the program, design and run
// length. Its manager key is the policy fingerprint, so the assignment
// is validated here and two sweeps of the same grid share flights and
// cache entries exactly.
func PolicyLane(spec policy.Spec, params policy.Params) (Lane, error) {
	fp, err := spec.Fingerprint(params)
	if err != nil {
		return Lane{}, err
	}
	p := params.Clone()
	return Lane{
		ManagerKey: fp,
		Manager:    func() (core.Manager, error) { return spec.Manager(p) },
	}, nil
}

// The lane templates the figures submit. The paper's four managers are
// registered policies, so their figure runs are policy lanes at default
// parameters, keyed by fingerprint exactly like a run, compare or tune
// lane of the same policy. The study-only setups are experiment
// configurations, not selectable policies, and keep their names as
// manager keys.
var (
	fullPower = registered("full-power", nil)
	powerChop = registered("powerchop", nil)
	minPower  = registered("min-power", nil)
	timeout   = registered("timeout", nil)

	// smallBPU forces the small local predictor (Figure 2's series).
	smallBPU = fixed("small-bpu", pvt.Policy{VPUOn: true, MLC: pvt.MLCAll})
	// mlcOneWay forces the one-way MLC (Figure 3's 128KB 1-way series).
	mlcOneWay = fixed("mlc-one-way", pvt.Policy{VPUOn: true, BPUOn: true, MLC: pvt.MLCOne})
	// chopVPU, chopBPU and chopMLC run PowerChop managing one unit only
	// (the per-unit study and Figure 16).
	chopVPU = chopOnly("powerchop-vpu", cde.Managed{VPU: true})
	chopBPU = chopOnly("powerchop-bpu", cde.Managed{BPU: true})
	chopMLC = chopOnly("powerchop-mlc", cde.Managed{MLC: true})
)

// registered is the lane template of a built-in policy at a parameter
// assignment. The built-ins register in internal/policy's init, which
// runs before this package's variables are initialized, so a missing
// one, like an assignment outside its schema, is a wiring bug.
func registered(name string, params policy.Params) Lane {
	l, err := Lane{}, fmt.Errorf("experiments: unknown policy %q", name)
	if spec, ok := policy.Lookup(name); ok {
		l, err = PolicyLane(spec, params)
	}
	if err != nil {
		panic(err)
	}
	return l
}

// fixed is the template of a study-only setup that holds one policy
// vector for the whole run.
func fixed(key string, p pvt.Policy) Lane {
	return Lane{ManagerKey: key, Manager: func() (core.Manager, error) {
		return &core.Static{ManagerName: key, Policy: p}, nil
	}}
}

// chopOnly is the template of a study-only PowerChop setup managing
// only the given units; the others stay fully powered.
func chopOnly(key string, units cde.Managed) Lane {
	return Lane{ManagerKey: key, Manager: func() (core.Manager, error) {
		cfg := core.DefaultConfig()
		cfg.Managed = units
		return core.NewPowerChop(cfg)
	}}
}

// ResultSet completes every lane template on every benchmark with the
// benchmark's program, its design point and the runner's run length,
// and returns the results indexed by benchmark and then by template.
// The whole set is one Run call, with Run's singleflight and
// persistent-cache semantics per lane, so its cold lanes on one
// benchmark share batched simulations — one instruction walk driving
// every lane of a group (internal/sim.RunBatch), byte-identical to
// one-lane runs — and its groups fill every job slot. Programs build on
// up to Jobs() workers. A benchmark that fails to build fails every
// lane on it, reported as such, and the call returns before simulating
// anything.
//
// When ctx carries a span (internal/obs/span) each simulation group runs
// under a child span (see simulateGroup); deduplicated waiters and cache
// hits open no span of their own.
func (r *Runner) ResultSet(ctx context.Context, bs []workload.Benchmark, templates []Lane) ([][]*sim.Result, error) {
	ts := make([]Lane, len(bs))
	errs := make([]error, len(bs))
	r.each(len(bs), func(i int) {
		if ts[i], errs[i] = r.template(bs[i]); errs[i] == nil {
			return
		}
		for _, l := range templates {
			if !l.Silent {
				r.report(obs.RunUpdate{Benchmark: bs[i].Name, Kind: l.ManagerKey, State: obs.StateError, Err: errs[i].Error()})
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	lanes := make([]Lane, 0, len(bs)*len(templates))
	for _, t := range ts {
		for _, l := range templates {
			l.Program, l.Design, l.RunLen, l.digest, l.design = t.Program, t.Design, t.RunLen, t.digest, t.design
			lanes = append(lanes, l)
		}
	}
	res, err := r.Run(ctx, lanes)
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(bs))
	for i := range out {
		out[i] = res[i*len(templates) : (i+1)*len(templates)]
	}
	return out, nil
}

// template returns the benchmark's memoized lane template: its built
// program, design point, run length and their hashed key fields.
// Programs are immutable once built, so every lane may share one.
func (r *Runner) template(b workload.Benchmark) (Lane, error) {
	r.mu.Lock()
	t, ok := r.benches[b.Name]
	r.mu.Unlock()
	if ok {
		return t, nil
	}
	p, err := b.Build()
	if err != nil {
		return Lane{}, err
	}
	t = Lane{Program: p, Design: DesignFor(b), RunLen: r.runLength(p.TotalScheduleTranslations())}
	t.digest, t.design = t.hash()
	r.mu.Lock()
	r.benches[b.Name] = t
	r.mu.Unlock()
	return t, nil
}

// Run executes the lanes and returns their results in input order. Every
// lane takes the same path:
//
//  1. a flight: a lane whose key is already in flight (or done) awaits
//     that flight instead of simulating;
//  2. a persistent-cache lookup, or a counted bypass for lanes that
//     cannot be cached; a call that owns several lanes looks them up on
//     up to jobs goroutines, and a hit takes no job slot;
//  3. a job slot, held by one simulation group at a time;
//  4. cold lanes are chunked, per program and in submission order, into
//     sim.RunBatch groups of min(batch cap, ⌈cold lanes ÷ jobs⌉) lanes,
//     and a call's groups run concurrently, up to jobs at a time;
//  5. a cache put of each fresh result;
//  6. a progress "done" (or "error") report.
//
// Observed lanes skip the flight and the cache and run alone. A failed
// flight is dropped so a later call retries; Run returns the first
// failure in lane order.
func (r *Runner) Run(ctx context.Context, lanes []Lane) ([]*sim.Result, error) {
	keys := make([]rescache.Key, len(lanes))
	for i := range lanes {
		if !lanes[i].observed() {
			keys[i] = lanes[i].key()
		}
	}
	flights := make([]*flight, len(lanes))
	owned := make([]int, 0, len(lanes))
	r.mu.Lock()
	for i := range lanes {
		if !lanes[i].observed() {
			if f, ok := r.flights[keys[i]]; ok {
				// In flight elsewhere, or owned earlier in this very loop
				// for a duplicate lane: await it below.
				flights[i] = f
				continue
			}
		}
		f := &flight{done: make(chan struct{})}
		if !lanes[i].observed() {
			r.flights[keys[i]] = f
		}
		flights[i] = f
		owned = append(owned, i)
	}
	r.mu.Unlock()

	started := time.Now()
	settle := func(i int, res *sim.Result, err error) {
		l, f := &lanes[i], flights[i]
		f.res, f.err = res, err
		if err != nil && !l.observed() {
			r.mu.Lock()
			delete(r.flights, keys[i])
			r.mu.Unlock()
		}
		if !l.Silent {
			u := obs.RunUpdate{Benchmark: l.Program.Name, Kind: l.ManagerKey, State: obs.StateDone, Elapsed: time.Since(started)}
			if err != nil {
				u.State, u.Err = obs.StateError, err.Error()
			} else {
				u.Cycles, u.Windows = res.Cycles, res.Windows
				u.Translations, u.Total = l.RunLen, l.RunLen
			}
			r.report(u)
		}
		close(f.done)
	}

	for _, i := range owned {
		if !lanes[i].Silent {
			r.report(obs.RunUpdate{Benchmark: lanes[i].Program.Name, Kind: lanes[i].ManagerKey, State: obs.StateQueued})
		}
	}
	hit := make([]bool, len(owned))
	if r.Cache != nil {
		r.each(len(owned), func(k int) {
			i := owned[k]
			if r.alone(&lanes[i]) {
				r.Cache.CountBypass()
			} else if res, ok := r.Cache.Get(keys[i]); ok {
				settle(i, res, nil)
				hit[k] = true
			}
		})
	}
	cold := make([]int, 0, len(owned))
	for k, i := range owned {
		if !hit[k] {
			cold = append(cold, i)
		}
	}

	groups := r.groups(lanes, cold)
	r.each(len(groups), func(g int) {
		group := groups[g]
		res, err := r.simulateGroup(ctx, lanes, group)
		for j, i := range group {
			if err != nil {
				settle(i, nil, err)
				continue
			}
			if r.Cache != nil && !r.alone(&lanes[i]) {
				// Best-effort: a failed store is counted by the cache
				// and must not fail a run that produced a good result.
				_ = r.Cache.Put(keys[i], res[j])
			}
			settle(i, res[j], nil)
		}
	})

	out := make([]*sim.Result, len(lanes))
	for i, f := range flights {
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		out[i] = f.res
	}
	return out, nil
}

// report delivers an update to the runner's progress callback, if any.
func (r *Runner) report(u obs.RunUpdate) {
	if r.Progress != nil {
		r.Progress(u)
	}
}

// each calls f for every index below n on up to Jobs() goroutines, the
// caller's among them, and returns when every call has: a call over one
// index starts no goroutine.
func (r *Runner) each(n int, f func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			f(int(i))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(r.Jobs(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// groups chunks the cold lanes, per program and in submission order,
// into simulation groups of at most min(batch cap, ⌈cold lanes ÷ jobs⌉)
// lanes, so that every job has a group to drive; lanes that must run
// alone get a group of their own. Groups are ordered by their first
// lane.
func (r *Runner) groups(lanes []Lane, cold []int) [][]int {
	width := r.Batch
	if width <= 0 {
		width = defaultBatchCap
	}
	width = min(width, (len(cold)+r.Jobs()-1)/r.Jobs())
	var out [][]int
	open := map[*program.Program]int{}
	for _, i := range cold {
		if r.alone(&lanes[i]) {
			out = append(out, []int{i})
			continue
		}
		g, ok := open[lanes[i].Program]
		if !ok || len(out[g]) == width {
			open[lanes[i].Program] = len(out)
			out = append(out, []int{i})
			continue
		}
		out[g] = append(out[g], i)
	}
	return out
}

// simulateGroup runs one group while holding a job slot: a group of one
// under a "benchmark" span (sim.RunBatch runs it as a one-lane group,
// beneath a "sim" span), a wider group under a "benchbatch" span over
// sim.RunBatch's shared walk ("simbatch"). Observed lanes' JSONL traces are flushed as
// the group ends.
func (r *Runner) simulateGroup(ctx context.Context, lanes []Lane, group []int) (res []*sim.Result, err error) {
	p := lanes[group[0]].Program
	var sp *span.Span
	if len(group) == 1 {
		ctx, sp = span.Start(ctx, "benchmark", "bench="+p.Name, "kind="+lanes[group[0]].ManagerKey)
	} else {
		ctx, sp = span.Start(ctx, "benchbatch", "bench="+p.Name, "lanes="+strconv.Itoa(len(group)))
	}
	defer func() { sp.EndErr(err) }()
	r.sem <- struct{}{}
	defer func() { <-r.sem }()

	cfgs := make([]sim.Config, len(group))
	var traces []*obs.JSONL
	for j, i := range group {
		l := &lanes[i]
		m, err := l.Manager()
		if err != nil {
			return nil, err
		}
		tracer := obs.Multi(l.Tracer, r.Tracer)
		if l.TraceWriter != nil {
			trace := obs.NewJSONL(l.TraceWriter)
			traces = append(traces, trace)
			tracer = obs.Multi(trace, tracer)
		}
		cfgs[j] = sim.Config{
			Context:         ctx,
			Design:          l.Design,
			Manager:         m,
			Phase:           l.Phase,
			MaxTranslations: l.RunLen,
			SampleInterval:  l.SampleInterval,
			TrackQuality:    l.Quality,
			Tracer:          tracer,
			Metrics:         l.Metrics,
			Audit:           l.Audit,
		}
		if r.Progress != nil && !l.Silent {
			u := obs.RunUpdate{Benchmark: p.Name, Kind: l.ManagerKey, State: obs.StateSimulating}
			r.report(u)
			cfgs[j].Progress = func(pr sim.Progress) {
				u.Cycles, u.Translations, u.Total, u.Windows = pr.Cycle, pr.Translations, pr.MaxTranslations, pr.Windows
				r.report(u)
			}
		}
	}
	r.sims.Add(uint64(len(group)))
	res, err = sim.RunBatch(p, cfgs)
	for _, trace := range traces {
		if ferr := trace.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("flushing trace: %w", ferr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", p.Name, err)
	}
	return res, nil
}
