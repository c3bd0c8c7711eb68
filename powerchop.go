// Package powerchop is a library reproduction of "PowerChop: Identifying
// and Managing Non-critical Units in Hybrid Processor Architectures"
// (Laurenzano, Zhang, Chen, Tang and Mars, ISCA 2016).
//
// PowerChop power-gates three large, stateful, high-activity units of a
// hybrid (binary-translation based) processor — the vector processing
// unit, the large branch predictor and the middle-level cache — at
// application-phase granularity, based on measured unit criticality
// rather than unit idleness. This package exposes:
//
//   - Run: simulate one of the paper's 29 benchmark stand-ins on the
//     server or mobile design point under a chosen power manager
//     (PowerChop, full-power, minimum-power, or the idle-timeout
//     baseline) and report performance, unit activity and power.
//   - Compare: the paper's headline three-way comparison for a benchmark.
//   - Workload: a builder for custom guest programs, so downstream users
//     can evaluate PowerChop on their own phase behaviours.
//   - RenderFigure / FigureIDs: regenerate each table and figure of the
//     paper's evaluation section.
//
// The simulator, binary-translation runtime, predictors, caches, power
// model and workloads are all implemented in this module's internal
// packages; see DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package powerchop

import (
	"context"
	"fmt"
	"io"
	"sort"

	"powerchop/internal/arch"
	"powerchop/internal/experiments"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/policy"
	"powerchop/internal/program"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// Manager names accepted by Options.Manager. These are the built-in
// registrations of the policy registry (internal/policy); PolicyNames
// lists every registered policy, including any added later.
const (
	ManagerPowerChop = "powerchop"
	ManagerFullPower = "full-power"
	ManagerMinPower  = "min-power"
	ManagerTimeout   = "timeout"
	// ManagerEnergyMin is the paper's suggested aggressive variant
	// (Section V-A): higher criticality thresholds targeting energy
	// minimization at the cost of extra slowdown.
	ManagerEnergyMin = "energy-min"
	// ManagerDarkGates is the DarkGates-style break-even bypass policy:
	// PowerChop underneath, but gating decisions predicted to cost more
	// in transition stalls than they save in leakage are vetoed.
	ManagerDarkGates = "darkgates"
	// ManagerAgileWatts is the AgileWatts-style hierarchical idle-state
	// policy: consecutive idle windows promote each unit through shallow
	// and deep gated states with distinct entry/exit costs.
	ManagerAgileWatts = "agilewatts"
)

// Arch names accepted by Options.Arch.
const (
	ArchServer = "server"
	ArchMobile = "mobile"
	// ArchAuto picks the design point the paper pairs with the
	// benchmark's suite: mobile for MobileBench, server otherwise.
	ArchAuto = ""
)

// Options configures a Run.
type Options struct {
	// Arch selects the design point ("server", "mobile", or empty for
	// the benchmark's default).
	Arch string
	// Manager selects the power manager (default "powerchop").
	Manager string
	// Passes is the run length in passes over the benchmark's phase
	// schedule (default 2).
	Passes float64
	// SampleInterval, when positive, records an IPC/vector-activity
	// sample every that many instructions.
	SampleInterval uint64
	// Params assigns values to the selected policy's registered
	// parameters (see Policies for each policy's schema); unset
	// parameters keep their defaults. Unknown names and out-of-bounds
	// values fail the run.
	Params map[string]float64
	// TraceWriter, when non-nil, receives the run's event trace as JSONL
	// (one event per line; see DESIGN.md "Observability"). The stream is
	// flushed when the run ends, so the lanes of a RunBatch, Compare or
	// Tune may share one writer: their streams follow each other in lane
	// order, byte-identical to serial Runs.
	TraceWriter io.Writer
	// Metrics enables metrics collection; the snapshot lands in
	// Report.Metrics.
	Metrics bool
	// Audit enables decision-provenance collection: every CDE decision's
	// lineage (scores, thresholds, PVT path) and a per-phase attribution
	// of energy saved vs. slowdown incurred land in Report.Audit. Like
	// Metrics it is a pure observer — the simulated results are
	// bit-identical with or without it.
	Audit bool
	// Tracer, when non-nil, receives the run's event stream alongside any
	// TraceWriter — the hook live monitors attach to (see internal
	// obs/serve). It must be safe for concurrent emission if the caller
	// also sets Parallelism above one.
	Tracer obs.Tracer
	// Telemetry, when non-nil, streams the run's per-window series
	// (instruction counts, IPC, stalls, per-unit power fractions, PVT hit
	// rate, criticality scores) into the given time-series store; query
	// it live over /api/query on a monitor or afterwards in process.
	// Every run into a store passes through the store's one trace fold
	// (tsdb.Store.Ingestor), so runs fed to it one after another, within
	// a call or across calls, concatenate; a RunBatch, Compare or Tune
	// call that feeds a store runs its lanes in lane order. A pure
	// observer like Tracer: results are bit-identical with or without it.
	Telemetry *tsdb.Store
	// Progress, when non-nil, receives the run's lifecycle: queued,
	// simulating (then at every window boundary), and done or error. The
	// callback is a pure observer: results are bit-identical with or
	// without it.
	Progress func(RunProgress)
	// Parallelism, when above one, lets RunBatch, Compare and Tune run
	// up to that many simulation groups concurrently, their cold lanes
	// split into groups of at most ⌈lanes ÷ Parallelism⌉ (each
	// simulation stays single-threaded and deterministic, so the Reports
	// are identical to a serial run). It is ignored when a TraceWriter
	// or Telemetry is set, where serial execution keeps the event
	// streams from interleaving.
	Parallelism int
	// Batch caps how many lanes one batched simulation group
	// (sim.RunBatch) drives from a single trace walk: 0 selects the
	// default cap of 16, 1 gives every lane a one-lane group of its
	// own, larger values set the cap. Batching is a pure wall-clock
	// optimization — RunBatch, Compare and Tune produce byte-identical
	// Reports at any setting — so the only reasons to change it are
	// memory (a group holds one MLC per distinct gating history) and A/B
	// timing.
	Batch int
	// Cache, when non-nil, is a persistent content-addressed result
	// store (internal/rescache): Run consults it before simulating and
	// files the result afterwards, so repeated identical runs are
	// near-instant and byte-identical. Runs with an event-stream
	// consumer attached (TraceWriter, Tracer, Metrics, Audit or
	// Telemetry) bypass the cache — a cached result cannot replay the
	// stream. Progress still works on a hit: the callback receives the
	// final done report.
	Cache *rescache.Cache
	// CacheDir, when non-empty and Cache is nil, opens a cache rooted at
	// that directory (created on first store) with a private metrics
	// registry. The POWERCHOP_CACHE environment variable feeds this
	// through the CLI's -cache flag default.
	CacheDir string
}

// Run states reported through RunProgress.
const (
	StateQueued     = obs.StateQueued
	StateSimulating = obs.StateSimulating
	StateDone       = obs.StateDone
	StateError      = obs.StateError
)

// RunProgress is one progress report about a simulation: which
// (benchmark, kind) run it concerns, where it is in its lifecycle, and
// how far along the simulated clock has advanced. It is the record the
// runner emits and the monitor's /progress board shows, JSON tags
// included (see internal/obs).
type RunProgress = obs.RunUpdate

// Sample is one time-series point of a sampled run.
type Sample struct {
	Instructions uint64  // cumulative guest instructions
	IPC          float64 // over the interval
	VectorOps    uint64  // in the interval
}

// UnitReport summarizes one managed unit over a run.
type UnitReport struct {
	// GatedFrac is the fraction of cycles below full power.
	GatedFrac float64
	// OneWayFrac (MLC only) is the fraction of cycles at one active way.
	OneWayFrac float64
	// HalfFrac (MLC only) is the fraction at half the ways.
	HalfFrac float64
	// SwitchesPerMCycles is power-state changes per million cycles.
	SwitchesPerMCycles float64
	// LeakageJ is the leakage energy the unit drew given its gating
	// residency; FullLeakageJ what an always-on unit would have drawn
	// over the same run; LeakageSavedJ their difference — the quantity
	// the audit layer attributes back to individual gating decisions.
	LeakageJ      float64
	FullLeakageJ  float64
	LeakageSavedJ float64
}

// Report is a run's public result.
type Report struct {
	Benchmark string
	Suite     string
	Arch      string
	Manager   string

	Cycles       float64
	Instructions uint64
	IPC          float64
	Seconds      float64

	VPU UnitReport
	BPU UnitReport
	MLC UnitReport

	AvgPowerW    float64
	AvgLeakageW  float64
	TotalEnergyJ float64

	MispredictRate float64
	MLCHitRate     float64

	PVTHitRate     float64
	CDEInvocations uint64
	PhasesSeen     int

	Samples []Sample

	// Metrics holds the run's metrics snapshot when Options.Metrics was
	// set; nil otherwise.
	Metrics *MetricsReport

	// Audit holds the run's decision-provenance report when
	// Options.Audit was set; nil otherwise.
	Audit *AuditReport
}

// AuditReport is a run's decision-provenance trail, the record the
// auditor builds (internal/obs/audit): the per-phase attribution table
// (Phases, in order of first appearance; "(boot)" covers pre-decision
// cycles), every policy registration (Decisions), and the per-unit
// energy saved, which sums to the run's per-unit LeakageSavedJ (see
// UnitReport). Its JSON form is the one `explain -json`, /api/explain
// and the monitor's /decisions?format=json print; Render(top) formats
// the text report.
type AuditReport = audit.Trail

// PhaseAttribution is one phase's share of the run: how long its
// decisions governed execution, what they saved, what they cost.
type PhaseAttribution = audit.PhaseAttribution

// DecisionRecord is the full lineage of one gating decision: its
// phase, path, policy (the 4-bit code in Policy, its text in
// PolicyStr) and the scores behind it.
type DecisionRecord = audit.DecisionRecord

// ScoreRecord is one unit's criticality measurement inside a decision:
// the value Algorithm 1 computed, the threshold(s) it was compared
// against, and the resulting policy slice (Comparison renders it).
type ScoreRecord = audit.ScoreRecord

// HistogramReport summarizes one metrics histogram.
type HistogramReport struct {
	Count uint64
	Mean  float64
	Min   float64
	Max   float64
}

// MetricsReport is the public mirror of a run's metrics snapshot.
type MetricsReport struct {
	// Counters maps counter names (e.g. "events.pvt-hit") to values.
	Counters map[string]uint64
	// Histograms maps histogram names (e.g. "window.insns") to summaries.
	Histograms map[string]HistogramReport
	// Summary is the rendered human-readable metrics table.
	Summary string
}

// metricsReportOf converts an internal snapshot.
func metricsReportOf(s *obs.Snapshot) *MetricsReport {
	m := &MetricsReport{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Histograms: make(map[string]HistogramReport, len(s.Histograms)),
		Summary:    s.Render(),
	}
	for _, c := range s.Counters {
		m.Counters[c.Name] = c.Value
	}
	for _, h := range s.Histograms {
		m.Histograms[h.Name] = HistogramReport{
			Count: h.Count, Mean: h.Mean(), Min: h.Min, Max: h.Max,
		}
	}
	return m
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s/%s/%s: IPC %.2f, power %.3g W (leakage %.3g W), gated VPU %.0f%% BPU %.0f%% MLC %.0f%%",
		r.Benchmark, r.Arch, r.Manager, r.IPC, r.AvgPowerW, r.AvgLeakageW,
		r.VPU.GatedFrac*100, r.BPU.GatedFrac*100, r.MLC.GatedFrac*100)
}

// Benchmarks returns the names of the built-in benchmark stand-ins.
func Benchmarks() []string { return workload.Names() }

// Suites returns the benchmark suite names.
func Suites() []string { return workload.Suites() }

// SuiteOf returns the suite of a benchmark.
func SuiteOf(benchmark string) (string, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return "", err
	}
	return b.Suite, nil
}

// resolvePolicy looks up a manager name (empty selects "powerchop") in
// the policy registry.
func resolvePolicy(manager string) (policy.Spec, error) {
	name := manager
	if name == "" {
		name = ManagerPowerChop
	}
	spec, ok := policy.Lookup(name)
	if !ok {
		return policy.Spec{}, fmt.Errorf("powerchop: unknown manager %q", manager)
	}
	return spec, nil
}

// designFor resolves the design point: the benchmark's own under
// ArchAuto, the named one otherwise.
func designFor(o Options, b workload.Benchmark) (arch.Design, error) {
	if o.Arch == ArchAuto {
		return experiments.DesignFor(b), nil
	}
	return arch.ByName(o.Arch)
}

// Run simulates the named benchmark under the options.
func Run(benchmark string, opts Options) (*Report, error) {
	return RunContext(context.Background(), benchmark, opts)
}

// RunContext is Run under a context. When ctx carries a span
// (internal/obs/span) a simulated run executes under a "benchmark" child
// span and the simulation beneath a "sim" span — pure observation; the
// Report is byte-identical regardless of ctx.
func RunContext(ctx context.Context, benchmark string, opts Options) (*Report, error) {
	b, p, err := build(benchmark)
	if err != nil {
		return nil, err
	}
	return runOne(ctx, p, b, opts)
}

// build looks up and builds a benchmark's program.
func build(benchmark string) (workload.Benchmark, *program.Program, error) {
	b, err := workload.ByName(benchmark)
	if err != nil {
		return b, nil, err
	}
	p, err := b.Build()
	return b, p, err
}

// runOne runs one option set on a built program as a one-lane call.
func runOne(ctx context.Context, p *program.Program, b workload.Benchmark, opts Options) (*Report, error) {
	l, err := lane(p, b, opts)
	if err != nil {
		return nil, err
	}
	reps, err := submit(ctx, opts, []experiments.Lane{l})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// lane resolves one option set into a simulation request on a built
// program: policy and design resolution (the policy fingerprint, which
// validates the parameters, is the lane's manager key), run length and
// observers, Telemetry among them as the store's own ingestor.
func lane(p *program.Program, b workload.Benchmark, opts Options) (experiments.Lane, error) {
	spec, err := resolvePolicy(opts.Manager)
	if err != nil {
		return experiments.Lane{}, err
	}
	l, err := experiments.PolicyLane(spec, opts.Params)
	if err != nil {
		return experiments.Lane{}, err
	}
	if l.Design, err = designFor(opts, b); err != nil {
		return experiments.Lane{}, err
	}
	passes := opts.Passes
	if passes <= 0 {
		passes = 2
	}
	l.Program = p
	l.RunLen = uint64(passes * float64(p.TotalScheduleTranslations()))
	l.SampleInterval = opts.SampleInterval
	l.TraceWriter, l.Tracer = opts.TraceWriter, opts.Tracer
	if opts.Telemetry != nil {
		l.Tracer = obs.Multi(l.Tracer, opts.Telemetry.Ingestor())
	}
	l.Metrics, l.Audit = opts.Metrics, opts.Audit
	return l, nil
}

// submit runs lanes on a per-call experiments.Runner set up from the
// call's options: jobs = max(1, Parallelism), or one when the call feeds
// a telemetry store or any lane writes a JSONL trace (so event streams
// sharing a fold or a writer never interleave); the Batch cap; the
// Progress callback; and the persistent cache — Cache, or one opened
// from CacheDir once for the whole call.
func submit(ctx context.Context, opts Options, lanes []experiments.Lane) ([]*Report, error) {
	jobs := max(1, opts.Parallelism)
	if opts.Telemetry != nil {
		jobs = 1
	}
	for i := range lanes {
		if lanes[i].TraceWriter != nil {
			jobs = 1
		}
	}
	r := experiments.NewParallelRunner(1, jobs)
	r.Batch = opts.Batch
	r.Cache = opts.Cache
	if r.Cache == nil && opts.CacheDir != "" {
		r.Cache = rescache.New(opts.CacheDir, nil)
	}
	r.Progress = opts.Progress
	results, err := r.Run(ctx, lanes)
	if err != nil {
		return nil, err
	}
	reps := make([]*Report, len(results))
	for i, res := range results {
		reps[i] = reportOf(res)
	}
	return reps, nil
}

// RunBatch simulates the benchmark once per option set and returns the
// Reports in input order. Every Report is byte-identical to what
// Run(benchmark, optsList[i]) returns; the batch exists purely to
// amortize the shared instruction-stream work across the variants (see
// DESIGN.md "Batched sweep execution"). Lanes whose results are already
// in the persistent cache are served from it without simulating; lanes
// with an event-stream consumer attached (TraceWriter, Tracer, Metrics,
// Audit, Telemetry) simulate alone. The first option set's Parallelism,
// Batch, Cache, CacheDir and Progress apply to the whole batch.
func RunBatch(benchmark string, optsList []Options) ([]*Report, error) {
	return RunBatchContext(context.Background(), benchmark, optsList)
}

// RunBatchContext is RunBatch under a context. When ctx carries a span
// each batched group executes under a "benchbatch" child span (a lane
// simulating alone under a "benchmark" span).
func RunBatchContext(ctx context.Context, benchmark string, optsList []Options) ([]*Report, error) {
	b, p, err := build(benchmark)
	if err != nil {
		return nil, err
	}
	if len(optsList) == 0 {
		return []*Report{}, nil
	}
	call := optsList[0]
	lanes := make([]experiments.Lane, len(optsList))
	for i, o := range optsList {
		if lanes[i], err = lane(p, b, o); err != nil {
			return nil, fmt.Errorf("powerchop: batch lane %d: %w", i, err)
		}
		if o.Telemetry != nil {
			call.Parallelism = 1 // keep every lane's telemetry in lane order
		}
	}
	return submit(ctx, call, lanes)
}

// reportOf flattens a simulator result into the public Report.
func reportOf(res *sim.Result) *Report {
	r := &Report{
		Benchmark:    res.Benchmark,
		Suite:        res.Suite,
		Arch:         res.Arch,
		Manager:      res.Manager,
		Cycles:       res.Cycles,
		Instructions: res.GuestInsns,
		IPC:          res.IPC,
		Seconds:      res.Seconds,
		VPU: unitReportOf(res, arch.UnitVPU, UnitReport{
			GatedFrac:          res.VPU.GatedFrac,
			SwitchesPerMCycles: res.VPU.SwitchesPerM,
		}),
		BPU: unitReportOf(res, arch.UnitBPU, UnitReport{
			GatedFrac:          res.BPU.GatedFrac,
			SwitchesPerMCycles: res.BPU.SwitchesPerM,
		}),
		MLC: unitReportOf(res, arch.UnitMLC, UnitReport{
			GatedFrac:          res.MLC.GatedFrac,
			OneWayFrac:         res.MLC.OneWayFrac,
			HalfFrac:           res.MLC.HalfFrac,
			SwitchesPerMCycles: res.MLC.SwitchesPerM,
		}),
		AvgPowerW:      res.Power.AvgPowerW(),
		AvgLeakageW:    res.Power.AvgLeakageW(),
		TotalEnergyJ:   res.Power.TotalEnergyJ(),
		MispredictRate: res.MispredictRate(),
		PVTHitRate:     res.PVT.HitRate(),
		CDEInvocations: res.CDE.Invocations,
	}
	if res.MLCAccesses > 0 {
		r.MLCHitRate = float64(res.MLCHits) / float64(res.MLCAccesses)
	}
	r.PhasesSeen = res.KnownPhases
	for _, s := range res.Samples {
		r.Samples = append(r.Samples, Sample{
			Instructions: s.Insns,
			IPC:          s.IPC,
			VectorOps:    s.VectorOps,
		})
	}
	if res.Metrics != nil {
		r.Metrics = metricsReportOf(res.Metrics)
	}
	r.Audit = res.Audit
	return r
}

// unitReportOf completes a unit's public report with its leakage-energy
// triple from the power accountant.
func unitReportOf(res *sim.Result, unit string, u UnitReport) UnitReport {
	pu := res.Power.Unit(unit)
	u.LeakageJ = pu.LeakageJ
	u.FullLeakageJ = pu.FullLeakageJ
	u.LeakageSavedJ = pu.LeakSavedJ
	return u
}

// Comparison is the paper's three-way configuration study for one
// benchmark (Figure 12's per-app data plus power).
type Comparison struct {
	Benchmark string
	FullPower *Report
	PowerChop *Report
	MinPower  *Report
}

// Slowdown returns PowerChop's performance loss vs full power.
func (c *Comparison) Slowdown() float64 {
	return c.PowerChop.Cycles/c.FullPower.Cycles - 1
}

// MinPowerLoss returns the minimally-powered core's performance loss.
func (c *Comparison) MinPowerLoss() float64 {
	return 1 - c.FullPower.Cycles/c.MinPower.Cycles
}

// PowerReduction returns PowerChop's total power reduction vs full power.
func (c *Comparison) PowerReduction() float64 {
	return 1 - c.PowerChop.AvgPowerW/c.FullPower.AvgPowerW
}

// LeakageReduction returns PowerChop's leakage power reduction.
func (c *Comparison) LeakageReduction() float64 {
	return 1 - c.PowerChop.AvgLeakageW/c.FullPower.AvgLeakageW
}

// EnergyReduction returns PowerChop's total energy reduction.
func (c *Comparison) EnergyReduction() float64 {
	return 1 - c.PowerChop.TotalEnergyJ/c.FullPower.TotalEnergyJ
}

// Compare runs the benchmark under full-power, PowerChop and min-power.
// The three runs are lanes of one call, so they share batched
// simulations or run concurrently as Options.Batch and
// Options.Parallelism allow; the Reports are byte-identical to three
// serial Runs either way. A TraceWriter receives the three event streams
// in run order: full-power, powerchop, min-power.
func Compare(benchmark string, opts Options) (*Comparison, error) {
	b, p, err := build(benchmark)
	if err != nil {
		return nil, err
	}
	managers := []string{ManagerFullPower, ManagerPowerChop, ManagerMinPower}
	lanes := make([]experiments.Lane, len(managers))
	for i, m := range managers {
		o := opts
		o.Manager = m
		if lanes[i], err = lane(p, b, o); err != nil {
			return nil, err
		}
	}
	reps, err := submit(context.Background(), opts, lanes)
	if err != nil {
		return nil, err
	}
	return &Comparison{Benchmark: benchmark, FullPower: reps[0], PowerChop: reps[1], MinPower: reps[2]}, nil
}

// SortedBenchmarks returns benchmark names sorted alphabetically.
func SortedBenchmarks() []string {
	names := Benchmarks()
	sort.Strings(names)
	return names
}
