package powerchop

import (
	"context"
	"fmt"
	"io"
	"sync"

	"powerchop/internal/experiments"
	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
	"powerchop/internal/rescache"
	"powerchop/internal/stats"
	"powerchop/internal/workload"
)

// FigureRunner regenerates the paper's tables and figures. It memoizes the
// underlying simulations, so rendering every figure costs roughly one
// sweep of the benchmark suite per configuration; with more than one job
// it renders figures concurrently, deduplicating shared runs, while
// producing output byte-identical to a serial render.
type FigureRunner struct {
	runner *experiments.Runner
	jobs   int
}

// FigureOption configures a FigureRunner.
type FigureOption func(*figureConfig)

type figureConfig struct {
	jobs     int
	batch    int
	tracer   obs.Tracer
	progress func(RunProgress)
	cache    *rescache.Cache
}

// WithBatch caps how many cold lanes of one benchmark a figure's run set
// hands to one batched simulation: 0 selects the default cap, 1
// disables batching. A pure wall-clock knob — figure output is
// byte-identical at any setting.
func WithBatch(n int) FigureOption {
	return func(c *figureConfig) { c.batch = n }
}

// WithJobs bounds the number of concurrent simulations (and, when above
// one, enables concurrent figure rendering). n <= 0 selects GOMAXPROCS.
func WithJobs(n int) FigureOption {
	return func(c *figureConfig) { c.jobs = n }
}

// WithTracer attaches an event sink to every simulation the runner
// launches. Simulations run concurrently, so the tracer must be safe for
// concurrent emission (obs/serve's fan-out hub and the metrics collector
// both are). Figure output stays byte-identical with or without it.
func WithTracer(t obs.Tracer) FigureOption {
	return func(c *figureConfig) { c.tracer = t }
}

// WithProgress registers a callback for run lifecycle updates: queued
// when a (benchmark, manager key) run is registered, simulating with
// live counters at every window boundary, done or error at completion.
// Callbacks arrive concurrently from the simulating goroutines.
func WithProgress(fn func(RunProgress)) FigureOption {
	return func(c *figureConfig) { c.progress = fn }
}

// WithCache attaches a persistent result cache: every canonical run the
// runner launches is looked up before simulating and stored after. A
// warm cache renders the full figure set byte-identically to a cold run
// at a fraction of the cost. When a tracer is also attached the cache is
// bypassed (and the bypass counted) — cached results cannot replay the
// event stream.
func WithCache(c *rescache.Cache) FigureOption {
	return func(fc *figureConfig) { fc.cache = c }
}

// WithCacheDir is WithCache with a cache opened at dir, its counters in a
// private registry. Use WithCache to share a registry (e.g. a live
// monitor's) instead.
func WithCacheDir(dir string) FigureOption {
	return func(fc *figureConfig) {
		if dir != "" {
			fc.cache = rescache.New(dir, nil)
		}
	}
}

// NewFigureRunner returns a figure runner. scale stretches or shrinks run
// lengths (1 = the calibrated default of two phase-schedule passes; runs
// never drop below one full pass).
func NewFigureRunner(scale float64, opts ...FigureOption) *FigureRunner {
	var c figureConfig
	for _, o := range opts {
		o(&c)
	}
	r := experiments.NewParallelRunner(scale, c.jobs)
	r.Tracer = c.tracer
	r.Cache = c.cache
	r.Batch = c.batch
	r.Progress = c.progress
	return &FigureRunner{runner: r, jobs: r.Jobs()}
}

// figureSpec describes one renderable experiment.
type figureSpec struct {
	id     string
	title  string
	render func(context.Context, *FigureRunner) (string, error)
}

var figureSpecs = []figureSpec{
	{"table1", "Table I: architectural design points", func(context.Context, *FigureRunner) (string, error) {
		return experiments.TableI().Render(), nil
	}},
	{"fig1", "Figure 1: gobmk vector intensity over time", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure1(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig2", "Figure 2: small vs large BPU IPC on msn", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure2(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig3", "Figure 3: 1-way vs 8-way MLC IPC on GemsFDTD", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure3(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig8", "Figure 8: phase signature quality", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure8(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig9", "Figure 9: unit activity, mobile", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure9(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig10", "Figure 10: unit activity, server", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure10(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig11", "Figure 11: policy change frequency", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure11(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig12", "Figure 12: performance comparison", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure12(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig13", "Figure 13: power and energy reduction", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.PowerReductions(ctx, f.runner)
		if err != nil {
			return "", err
		}
		return r.RenderFigure13(), nil
	}},
	{"fig14", "Figure 14: leakage power reduction", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.PowerReductions(ctx, f.runner)
		if err != nil {
			return "", err
		}
		return r.RenderFigure14(), nil
	}},
	{"fig15", "Figure 15: vector op prevalence among shards", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure15(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"fig16", "Figure 16: PowerChop vs timeout VPU gating", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Figure16(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"hwcosts", "HTB/PVT hardware costs (Section IV-B4)", func(context.Context, *FigureRunner) (string, error) {
		return experiments.HardwareCosts().Render(), nil
	}},
	{"swcosts", "CDE software costs (Section IV-C3)", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.SoftwareCosts(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"perunit", "Per-unit isolation study (Section V-C)", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.PerUnit(ctx, f.runner, workload.All())
		return renderOf(r, err)
	}},
	{"policyzoo", "Policy zoo: energy saved vs slowdown per policy", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.PolicyZoo(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"powertrace", "Power trace: per-window telemetry under PowerChop on gobmk", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.PowerTrace(ctx, f.runner)
		return renderOf(r, err)
	}},
	{"ablations", "Ablations: the design-choice sweeps behind the paper's parameters", func(ctx context.Context, f *FigureRunner) (string, error) {
		r, err := experiments.Ablations(ctx, f.runner)
		return renderOf(r, err)
	}},
}

// renderer is anything with a Render method.
type renderer interface{ Render() string }

func renderOf(r renderer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// FigureIDs lists the regenerable experiment identifiers.
func FigureIDs() []string {
	ids := make([]string, len(figureSpecs))
	for i, s := range figureSpecs {
		ids[i] = s.id
	}
	return ids
}

// FigureTitle returns the experiment's title.
func FigureTitle(id string) (string, error) {
	for _, s := range figureSpecs {
		if s.id == id {
			return s.title, nil
		}
	}
	return "", fmt.Errorf("powerchop: unknown figure %q (known: %v)", id, FigureIDs())
}

// RenderFigure regenerates one experiment and writes its text rendering.
func (f *FigureRunner) RenderFigure(w io.Writer, id string) error {
	return f.RenderFigureContext(context.Background(), w, id)
}

// RenderFigureContext is RenderFigure under a context: when ctx carries
// a span (internal/obs/span) the figure renders under a "sweep" child
// span and every simulation it launches nests beneath it. The context
// never influences results — output is byte-identical regardless.
func (f *FigureRunner) RenderFigureContext(ctx context.Context, w io.Writer, id string) error {
	for _, s := range figureSpecs {
		if s.id == id {
			out, err := renderSpan(ctx, f, s)
			if err != nil {
				return err
			}
			_, err = io.WriteString(w, out)
			return err
		}
	}
	return fmt.Errorf("powerchop: unknown figure %q (known: %v)", id, FigureIDs())
}

// renderSpan runs one spec under its "sweep" span.
func renderSpan(ctx context.Context, f *FigureRunner, s figureSpec) (out string, err error) {
	ctx, sp := span.Start(ctx, "sweep", "figure="+s.id)
	defer func() { sp.EndErr(err) }()
	return s.render(ctx, f)
}

// RenderAll regenerates every experiment. With more than one job the
// figures render concurrently — the Runner's singleflight cache ensures
// shared simulations still happen once — but the output is written
// strictly in spec order, so it is byte-identical to a serial render.
func (f *FigureRunner) RenderAll(w io.Writer) error {
	return f.RenderAllContext(context.Background(), w)
}

// RenderAllContext is RenderAll under a context: each figure renders
// under its own "sweep" child span of the span ctx carries, if any.
func (f *FigureRunner) RenderAllContext(ctx context.Context, w io.Writer) error {
	outs := make([]string, len(figureSpecs))
	errs := make([]error, len(figureSpecs))
	if f.jobs > 1 {
		var wg sync.WaitGroup
		for i, s := range figureSpecs {
			wg.Add(1)
			go func(i int, s figureSpec) {
				defer wg.Done()
				outs[i], errs[i] = renderSpan(ctx, f, s)
			}(i, s)
		}
		wg.Wait()
	} else {
		for i, s := range figureSpecs {
			outs[i], errs[i] = renderSpan(ctx, f, s)
		}
	}
	for i, s := range figureSpecs {
		if _, err := fmt.Fprintf(w, "==== %s ====\n", s.title); err != nil {
			return err
		}
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := io.WriteString(w, outs[i]); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// SuiteAverages summarizes PowerChop's headline numbers per suite (the
// aggregates quoted in the paper's abstract and Section V-D).
type SuiteAverages struct {
	Suite      string
	Slowdown   float64
	PowerRed   float64
	EnergyRed  float64
	LeakageRed float64
	Benchmarks int
}

// Headline computes per-suite and overall averages. Figure 12 submits
// every benchmark's full-power, PowerChop and min-power runs as one run
// set; the power comparison then reuses its full-power and PowerChop
// runs.
func (f *FigureRunner) Headline() ([]SuiteAverages, error) {
	return f.HeadlineContext(context.Background())
}

// HeadlineContext is Headline under a context: the two underlying
// sweeps run under "sweep" child spans of the span ctx carries, if any.
func (f *FigureRunner) HeadlineContext(ctx context.Context) ([]SuiteAverages, error) {
	var (
		perf *experiments.PerfResult
		pwr  *experiments.PowerResult
	)
	sweep := func(name string, run func(context.Context) error) error {
		ctx, sp := span.Start(ctx, "sweep", "figure="+name)
		err := run(ctx)
		sp.EndErr(err)
		return err
	}
	if err := sweep("fig12", func(ctx context.Context) (err error) {
		perf, err = experiments.Figure12(ctx, f.runner)
		return err
	}); err != nil {
		return nil, err
	}
	if err := sweep("power", func(ctx context.Context) (err error) {
		pwr, err = experiments.PowerReductions(ctx, f.runner)
		return err
	}); err != nil {
		return nil, err
	}
	slows := map[string][]float64{}
	for _, row := range perf.Rows {
		slows[row.Suite] = append(slows[row.Suite], 1-row.PowerChop)
		slows["all"] = append(slows["all"], 1-row.PowerChop)
	}
	var out []SuiteAverages
	suites := append(workload.Suites(), "all")
	for _, s := range suites {
		out = append(out, SuiteAverages{
			Suite:      s,
			Slowdown:   stats.Mean(slows[s]),
			PowerRed:   pwr.AvgPower[s],
			EnergyRed:  pwr.AvgEnergy[s],
			LeakageRed: pwr.AvgLeakage[s],
			Benchmarks: len(slows[s]),
		})
	}
	return out, nil
}
