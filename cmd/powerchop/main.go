// Command powerchop runs the PowerChop simulator from the command line:
// list benchmarks, simulate one under a chosen power manager, compare
// configurations, replay event traces, or regenerate the paper's tables
// and figures.
//
// Usage:
//
//	powerchop list
//	powerchop policies [-json]
//	powerchop run -bench gobmk [-manager NAME] [-param K=V] [-arch server|mobile] [-passes 2] [-trace out.jsonl] [-metrics] [-http :8080] [-cache DIR]
//	powerchop compare -bench namd [-passes 2] [-cache DIR]
//	powerchop tune -policy powerchop [-bench gobmk,namd] [-grid vpu=0.001:0.02:4] [-jobs N] [-json] [-cache DIR]
//	powerchop explain -bench gobmk [-manager M] [-arch A] [-top 20] [-json]
//	powerchop trace [-top 20] [-arch server] out.jsonl   (alias: trace audit)
//	powerchop trace timeline [-last 40] out.jsonl
//	powerchop trace chrome [-o out.json] out.jsonl
//	powerchop figure -id fig12 [-scale 1] [-jobs N] [-http :8080] [-cache DIR]
//	powerchop all [-scale 1] [-jobs N] [-http :8080] [-cache DIR]
//	powerchop headline [-scale 1] [-jobs N] [-http :8080] [-cache DIR]
//	powerchop serve [-addr :8080] [-scale 1] [-jobs N] [-trace out.jsonl] [-alert-rules FILE]
//	powerchop alerts rules
//	powerchop alerts check [-rules FILE] [-json] trace.jsonl
//	powerchop alerts watch -addr URL
//
// The -http flag attaches a live monitor to the run: Prometheus metrics
// at /metrics, per-run progress at /progress, the event stream at
// /events (SSE or NDJSON), and pprof at /debug/pprof. serve keeps that
// monitor up as a standing service with an /api tree for triggering
// figures and runs.
//
// The -cache flag (default $POWERCHOP_CACHE) names a persistent result
// cache: completed simulations are stored content-addressed on disk and
// reused across invocations, so a warm cache regenerates figures
// byte-identically at a fraction of the cost. Runs that record an event
// trace bypass the cache — cached results cannot replay the stream.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"powerchop"
	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/rescache"
)

// paramFlag parses repeatable -param NAME=VALUE policy parameters.
type paramFlag map[string]float64

func (p paramFlag) String() string { return "" }

func (p *paramFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	if *p == nil {
		*p = paramFlag{}
	}
	(*p)[name] = v
	return nil
}

// openCache validates dir — creating it if needed, so a bad path fails
// before any simulation time is spent — and opens a result cache whose
// counters register in reg (nil selects a private registry). An empty dir
// returns nil: caching stays off.
func openCache(dir string, reg *obs.Registry) (*rescache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return rescache.New(dir, reg), nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is a bad invocation: run reports it with exit status 2. An
// empty message means the flag package already printed the subcommand's
// usage, so nothing further is shown.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// errParse converts a flag-parse failure: -h/-help becomes flag.ErrHelp
// (exit 0), anything else a silent usageError — the flag package has
// already printed the error and the subcommand's own flag set, so the
// global usage must not be dumped on top of it.
func errParse(err error) error {
	if errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{}
}

// run dispatches the subcommand and returns the process exit status:
// 0 on success (including help requests), 1 on runtime errors, 2 on usage
// errors.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(args[1:])
	case "compare":
		err = cmdCompare(args[1:])
	case "explain":
		err = cmdExplain(args[1:], stdout)
	case "trace":
		err = cmdTrace(args[1:], stdout)
	case "figure":
		err = cmdFigure(args[1:])
	case "all":
		err = cmdAll(args[1:])
	case "headline":
		err = cmdHeadline(args[1:])
	case "serve":
		err = cmdServe(args[1:], stderr)
	case "top":
		err = cmdTop(args[1:], stdout)
	case "runs":
		err = cmdRuns(args[1:], stdout)
	case "alerts":
		err = cmdAlerts(args[1:], stdout)
	case "policies":
		err = cmdPolicies(args[1:], stdout)
	case "tune":
		err = cmdTune(args[1:], stdout)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "powerchop: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	var uerr usageError
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &uerr):
		if uerr.msg != "" {
			fmt.Fprintf(stderr, "powerchop: %s\n", uerr.msg)
		}
		return 2
	default:
		fmt.Fprintf(stderr, "powerchop: %v\n", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `powerchop - phase-based unit-level power gating for hybrid processors

commands:
  list                          list the built-in benchmarks
  run -bench NAME [flags]       simulate one benchmark
  compare -bench NAME [flags]   full-power vs PowerChop vs min-power
  explain -bench NAME [flags]   decision provenance: scores, thresholds, attribution
  trace [-top N] [-arch A] FILE per-phase attribution of a JSONL event trace
                                (alias: trace audit)
  trace timeline [-last N] FILE per-window phase/gating timeline table
  trace chrome [-o OUT] FILE    export as Chrome trace-event JSON (chrome://tracing)
  figure -id ID [-scale F] [-jobs N]   regenerate one paper figure/table
  all [-scale F] [-jobs N]             regenerate every figure/table
  headline [-scale F] [-jobs N]        per-suite slowdown/power/energy summary
  serve [-addr :8080] [-scale F] [-trace FILE] [-cache DIR]  standing monitor + figure API
  top -addr URL [-interval D] [-frames N]  live per-window series from a serve monitor
  top -bench NAME [flags]       run in process, then show the telemetry summary
  runs [list|show|tail] [-cache DIR] [-kind K] [-name N] [-json]  browse the run history
  alerts rules                  print the built-in alert ruleset as JSON
  alerts check [-rules F] [-json] TRACE  replay a trace through the alert rules; exit 1 if any fire
  alerts watch -addr URL        tail the live alert-transition stream of a serve monitor
  policies [-json]              list registered gating policies and parameter schemas
  tune -policy NAME [-bench B1,B2] [-grid P=LO:HI:N] [-jobs N] [-batch N] [-json]  Pareto sweep

compare, tune, figure, all and headline accept -batch N to cap how many
lanes one batched simulation group drives from a single trace walk
(0 = default cap of 16, 1 = one simulation per lane). tune, figure, all,
headline and serve accept -jobs N to bound how many simulation groups
run at once; cold lanes split into groups of at most ceil(lanes / N), so
every job has a group to drive. Results are byte-identical at any
setting: batching and jobs only change wall-clock time. tune also
accepts -progress for per-run completion lines on stderr.

run, tune, figure, all and headline accept -http ADDR to expose a live monitor
for the duration of the command: /metrics (Prometheus), /progress (JSON),
/events and /decisions (SSE or NDJSON), /dash (live telemetry), /api/series
and /api/query (time-series range queries), /debug/pprof. run also accepts
-telemetry to print per-window sparklines after the run.

run, compare, figure, all and headline accept -cache DIR (default
$POWERCHOP_CACHE) to reuse completed simulation results across
invocations; a warm cache is byte-identical to a cold run. Commands run
with a cache directory also journal a run-history record there, readable
with 'powerchop runs' or GET /api/runs on a serve monitor.
`)
	fmt.Fprintf(w, "\nfigure ids: %v\n", powerchop.FigureIDs())
	fmt.Fprintf(w, "managers (run -manager, see 'powerchop policies'): %v\n", powerchop.PolicyNames())
}

func cmdList() error {
	for _, name := range powerchop.Benchmarks() {
		suite, err := powerchop.SuiteOf(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %s\n", name, suite)
	}
	return nil
}

// runArgs carries the parsed flags of run and compare.
type runArgs struct {
	bench     string
	opts      powerchop.Options
	json      bool
	trace     string
	metrics   bool
	telemetry bool
	httpAddr  string
	cacheDir  string
}

// runFlags parses the flags of run or compare, named by cmd: only run
// takes -telemetry and only compare -batch, since a run is one lane.
func runFlags(cmd string, args []string) (runArgs, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name (see 'powerchop list')")
	manager := fs.String("manager", powerchop.ManagerPowerChop,
		"power manager ("+strings.Join(powerchop.PolicyNames(), "|")+")")
	var params paramFlag
	fs.Var(&params, "param", "policy parameter NAME=VALUE (repeatable; see 'powerchop policies')")
	archName := fs.String("arch", "", "design point (server|mobile; default per suite)")
	passes := fs.Float64("passes", 2, "passes over the phase schedule")
	sample := fs.Uint64("sample", 0, "sample interval in instructions (0 = off)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	trace := fs.String("trace", "", "write the event trace as JSONL to this file")
	metrics := fs.Bool("metrics", false, "collect and print run metrics")
	httpAddr := fs.String("http", "", "serve a live monitor on this address for the run's duration")
	cacheDir := fs.String("cache", os.Getenv("POWERCHOP_CACHE"), "persistent result cache directory (default $POWERCHOP_CACHE)")
	var telemetry bool
	var batch int
	if cmd == "run" {
		fs.BoolVar(&telemetry, "telemetry", false, "record per-window series and print a sparkline summary")
	} else {
		fs.IntVar(&batch, "batch", 0, "max lanes per batched simulation group (0 = default cap of 16, 1 = one simulation per lane)")
	}
	if err := fs.Parse(args); err != nil {
		return runArgs{}, errParse(err)
	}
	if *bench == "" {
		return runArgs{}, usageError{msg: "missing -bench (see 'powerchop list')"}
	}
	return runArgs{
		bench: *bench,
		opts: powerchop.Options{
			Arch:           *archName,
			Manager:        *manager,
			Params:         params,
			Passes:         *passes,
			SampleInterval: *sample,
			Metrics:        *metrics,
			Batch:          batch,
		},
		json:      *asJSON,
		trace:     *trace,
		metrics:   *metrics,
		telemetry: telemetry,
		httpAddr:  *httpAddr,
		cacheDir:  *cacheDir,
	}, nil
}

// params digests the flags that shaped the run for the history journal.
func (a *runArgs) params() string {
	s := fmt.Sprintf("manager=%s passes=%g", a.opts.Manager, a.opts.Passes)
	if a.opts.Arch != "" {
		s += " arch=" + a.opts.Arch
	}
	return s
}

// attachCache opens the -cache directory (when given) and plugs the cache
// into the run options. Called once up front with a nil registry, and
// again from the -http monitor hook so the cache's counters surface on
// the monitor's /metrics instead of a private registry.
func (a *runArgs) attachCache(reg *obs.Registry) error {
	c, err := openCache(a.cacheDir, reg)
	if err != nil {
		return err
	}
	a.opts.Cache = c
	return nil
}

// withTrace attaches a JSONL trace file to the options when requested and
// invokes f, closing the file afterwards.
func withTrace(a *runArgs, f func() error) error {
	if a.trace == "" {
		return f()
	}
	out, err := os.Create(a.trace)
	if err != nil {
		return err
	}
	a.opts.TraceWriter = out
	if err := f(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func cmdRun(args []string) error {
	a, err := runFlags("run", args)
	if err != nil {
		return err
	}
	if err := a.attachCache(nil); err != nil {
		return err
	}
	var ts *tsdb.Store
	if a.telemetry {
		ts = tsdb.NewStore(tsdb.DefaultConfig())
		a.opts.Telemetry = ts
	}
	start := time.Now()
	var rep *powerchop.Report
	runErr := withMonitor(a.httpAddr, os.Stderr, func(l *liveMonitor) {
		a.opts.Tracer = l.tracer
		a.opts.Progress = l.mon.Board().Update
		a.attachCache(l.registry())
	}, func() error {
		return withTrace(&a, func() error {
			rep, err = powerchop.Run(a.bench, a.opts)
			return err
		})
	})
	recordHistory(a.cacheDir, "run", a.bench, a.params(), start, a.opts.Cache, runErr)
	if runErr != nil {
		return runErr
	}
	if a.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Println(rep)
	fmt.Printf("  cycles %.3g, instructions %d, runtime %.3g s (simulated)\n",
		rep.Cycles, rep.Instructions, rep.Seconds)
	fmt.Printf("  energy %.4g J, mispredict rate %.3f, MLC hit rate %.3f\n",
		rep.TotalEnergyJ, rep.MispredictRate, rep.MLCHitRate)
	fmt.Printf("  MLC residency: one-way %.0f%%, half %.0f%%; switches/Mcyc VPU %.2f BPU %.2f MLC %.2f\n",
		rep.MLC.OneWayFrac*100, rep.MLC.HalfFrac*100,
		rep.VPU.SwitchesPerMCycles, rep.BPU.SwitchesPerMCycles, rep.MLC.SwitchesPerMCycles)
	if rep.Manager == powerchop.ManagerPowerChop {
		fmt.Printf("  phases characterized %d, CDE invocations %d, PVT hit rate %.4f\n",
			rep.PhasesSeen, rep.CDEInvocations, rep.PVTHitRate)
	}
	if rep.Metrics != nil {
		fmt.Println()
		fmt.Print(rep.Metrics.Summary)
	}
	if ts != nil {
		fmt.Println()
		if err := renderTelemetry(os.Stdout, ts, topWidth); err != nil {
			return err
		}
	}
	if a.trace != "" {
		fmt.Printf("\ntrace written to %s (summarize with 'powerchop trace %s')\n", a.trace, a.trace)
	}
	return nil
}

func cmdCompare(args []string) error {
	a, err := runFlags("compare", args)
	if err != nil {
		return err
	}
	if err := a.attachCache(nil); err != nil {
		return err
	}
	start := time.Now()
	var c *powerchop.Comparison
	runErr := withMonitor(a.httpAddr, os.Stderr, func(l *liveMonitor) {
		a.opts.Tracer = l.tracer
		a.opts.Progress = l.mon.Board().Update
		a.attachCache(l.registry())
	}, func() error {
		return withTrace(&a, func() error {
			// With -trace the three runs' events land in one file, in run
			// order: full-power, powerchop, min-power.
			c, err = powerchop.Compare(a.bench, a.opts)
			return err
		})
	})
	recordHistory(a.cacheDir, "compare", a.bench, a.params(), start, a.opts.Cache, runErr)
	if runErr != nil {
		return runErr
	}
	if a.json {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(c)
	}
	fmt.Printf("benchmark %s (%s)\n", c.Benchmark, c.FullPower.Arch)
	fmt.Printf("  full-power: IPC %.3f, power %.4g W\n", c.FullPower.IPC, c.FullPower.AvgPowerW)
	fmt.Printf("  powerchop:  IPC %.3f, power %.4g W  (slowdown %.2f%%, power -%.1f%%, leakage -%.1f%%, energy -%.1f%%)\n",
		c.PowerChop.IPC, c.PowerChop.AvgPowerW,
		c.Slowdown()*100, c.PowerReduction()*100, c.LeakageReduction()*100, c.EnergyReduction()*100)
	fmt.Printf("  min-power:  IPC %.3f, power %.4g W  (performance loss %.1f%%)\n",
		c.MinPower.IPC, c.MinPower.AvgPowerW, c.MinPowerLoss()*100)
	return nil
}

// cmdExplain runs a benchmark with the decision-provenance auditor
// attached and prints the attribution report: every gating decision with
// its criticality scores and threshold comparisons, the per-phase energy
// attribution table, and a reconciliation of attributed savings against
// the power model's per-unit leakage deltas.
func cmdExplain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark name (see 'powerchop list')")
	manager := fs.String("manager", powerchop.ManagerPowerChop, "power manager")
	archName := fs.String("arch", "", "design point (server|mobile; default per suite)")
	passes := fs.Float64("passes", 2, "passes over the phase schedule")
	top := fs.Int("top", 20, "maximum phases and decisions to list (0 = all)")
	asJSON := fs.Bool("json", false, "emit the audit report as JSON")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	if *bench == "" {
		return usageError{msg: "missing -bench (see 'powerchop list')"}
	}
	rep, err := powerchop.Run(*bench, powerchop.Options{
		Arch:    *archName,
		Manager: *manager,
		Passes:  *passes,
		Audit:   true,
	})
	if err != nil {
		return err
	}
	if rep.Audit == nil {
		return fmt.Errorf("explain: run produced no audit trail")
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep.Audit)
	}
	fmt.Fprintf(stdout, "%s (%s, %s manager)\n\n", rep.Benchmark, rep.Arch, rep.Manager)
	fmt.Fprint(stdout, rep.Audit.Render(*top))
	fmt.Fprintf(stdout, "\nreconciliation vs power model (attributed = leakage saved):\n")
	for _, u := range []struct {
		name string
		rep  powerchop.UnitReport
	}{
		{arch.UnitVPU, rep.VPU},
		{arch.UnitBPU, rep.BPU},
		{arch.UnitMLC, rep.MLC},
	} {
		attributed := rep.Audit.EnergySavedJ[u.name]
		fmt.Fprintf(stdout, "  %-4s attributed %.6g J, power model %.6g J (delta %.2g)\n",
			u.name, attributed, u.rep.LeakageSavedJ, attributed-u.rep.LeakageSavedJ)
	}
	return nil
}

// cmdTrace dispatches the trace tooling: the default report replays a
// recorded JSONL trace through the decision-provenance auditor, pricing
// the per-phase attribution at the chosen design point (a recorded
// trace carries no power model of its own); "audit" is its synonym.
// "timeline" prints the per-window table and "chrome" the trace-event
// export.
func cmdTrace(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "timeline":
			return cmdTraceTimeline(args[1:], stdout)
		case "chrome":
			return cmdTraceChrome(args[1:], stdout)
		case "audit":
			args = args[1:]
		}
	}
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	in := fs.String("in", "", "trace file (JSONL); also accepted as a positional argument")
	top := fs.Int("top", 20, "maximum phases and decisions to list (0 = all)")
	archName := fs.String("arch", "server", "design point pricing the attribution (server|mobile)")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	d, err := arch.ByName(*archName)
	if err != nil {
		return err
	}
	events, err := readTraceEvents(fs, *in)
	if err != nil {
		return err
	}
	a := audit.MustNew(audit.DesignConfig(d))
	for _, e := range events {
		a.Emit(e)
	}
	fmt.Fprint(stdout, a.Snapshot().Render(*top))
	return nil
}

// readTraceEvents loads a JSONL trace named by -in or the first
// positional argument ("-" reads stdin).
func readTraceEvents(fs *flag.FlagSet, in string) ([]obs.Event, error) {
	path := in
	if path == "" && fs.NArg() > 0 {
		path = fs.Arg(0)
	}
	if path == "" {
		return nil, usageError{msg: "missing trace file (pass FILE, or -in FILE)"}
	}
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadJSONL(r)
}

func cmdTraceTimeline(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace timeline", flag.ContinueOnError)
	in := fs.String("in", "", "trace file (JSONL); also accepted as a positional argument")
	last := fs.Int("last", 40, "show only the newest N windows (0 = all)")
	asJSON := fs.Bool("json", false, "emit the full timeline as JSON (ignores -last)")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	events, err := readTraceEvents(fs, *in)
	if err != nil {
		return err
	}
	tl := obs.NewTimeline(events)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(tl)
	}
	fmt.Fprint(stdout, tl.Render(*last))
	return nil
}

func cmdTraceChrome(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace chrome", flag.ContinueOnError)
	in := fs.String("in", "", "trace file (JSONL); also accepted as a positional argument")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return errParse(err)
	}
	events, err := readTraceEvents(fs, *in)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := obs.WriteChrome(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *out)
		return nil
	}
	return obs.WriteChrome(w, events)
}

// figureRunnerFlags parses the shared figure/all/headline flag set and
// builds the runner, attaching a live monitor when -http is given. The
// returned cleanup stops the monitor (a no-op without -http); record
// journals the command into the run history (a no-op without -cache).
func figureRunnerFlags(name string, args []string) (runner *powerchop.FigureRunner, id string, record func(kind, figure string, runErr error), cleanup func(), err error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var idFlag *string
	if name == "figure" {
		idFlag = fs.String("id", "", "figure id")
	}
	scale := fs.Float64("scale", 1, "run-length scale")
	jobs := fs.Int("jobs", 0, "max concurrent simulation groups (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 0, "max cold lanes per batched simulation group (0 = default cap of 16, 1 = one simulation per lane)")
	httpAddr := fs.String("http", "", "serve a live monitor on this address for the command's duration")
	cacheDir := fs.String("cache", os.Getenv("POWERCHOP_CACHE"), "persistent result cache directory (default $POWERCHOP_CACHE)")
	if err := fs.Parse(args); err != nil {
		return nil, "", nil, nil, errParse(err)
	}
	if idFlag != nil {
		if *idFlag == "" {
			return nil, "", nil, nil, usageError{msg: fmt.Sprintf("missing -id (known: %v)", powerchop.FigureIDs())}
		}
		id = *idFlag
	}
	opts := []powerchop.FigureOption{powerchop.WithJobs(*jobs), powerchop.WithBatch(*batch)}
	cleanup = func() {}
	var reg *obs.Registry
	if *httpAddr != "" {
		l := newLiveMonitor()
		opts = append(opts,
			powerchop.WithTracer(l.tracer),
			powerchop.WithProgress(l.mon.Board().Update),
		)
		if err := l.start(*httpAddr, os.Stderr); err != nil {
			return nil, "", nil, nil, err
		}
		cleanup = l.stop
		reg = l.registry()
	}
	cache, err := openCache(*cacheDir, reg)
	if err != nil {
		cleanup()
		return nil, "", nil, nil, err
	}
	if cache != nil {
		opts = append(opts, powerchop.WithCache(cache))
	}
	start := time.Now()
	record = func(kind, figure string, runErr error) {
		recordHistory(*cacheDir, kind, figure, fmt.Sprintf("scale=%g", *scale), start, cache, runErr)
	}
	return powerchop.NewFigureRunner(*scale, opts...), id, record, cleanup, nil
}

func cmdFigure(args []string) error {
	runner, id, record, cleanup, err := figureRunnerFlags("figure", args)
	if err != nil {
		return err
	}
	defer cleanup()
	err = runner.RenderFigure(os.Stdout, id)
	record("figure", id, err)
	return err
}

func cmdAll(args []string) error {
	runner, _, record, cleanup, err := figureRunnerFlags("all", args)
	if err != nil {
		return err
	}
	defer cleanup()
	err = runner.RenderAll(os.Stdout)
	record("all", "all", err)
	return err
}

func cmdHeadline(args []string) error {
	runner, _, record, cleanup, err := figureRunnerFlags("headline", args)
	if err != nil {
		return err
	}
	defer cleanup()
	rows, err := runner.Headline()
	record("headline", "headline", err)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %6s %9s %9s %9s %s\n", "suite", "apps", "slowdown", "power", "leakage", "energy")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			r.Suite, r.Benchmarks, r.Slowdown*100, r.PowerRed*100, r.LeakageRed*100, r.EnergyRed*100)
	}
	fmt.Println("paper: 2.2% slowdown; power 10/6/8/19%; leakage 23/10/12/32%; energy 9% avg")
	return nil
}
