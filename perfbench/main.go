// Command perfbench is the repository benchmark. It drives the
// powerchop library and CLI through their public entry points with one
// of three workloads, checks every operation's output, and prints one
// JSON record as the last line of standard output:
//
//	perfbench -workload sweep|figures|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 the record holds the end-to-end metrics, measured with
// no observer attached. With -trace 1 the workload runs twice on the
// same seed, untraced and then traced, and the record holds the
// per-layer metrics: span self times, a CPU profile grouped by layer,
// and counters the program exposes. NOTES.md explains every metric and
// why each workload exists; run.sh builds the binaries and runs this.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one named value of the result record.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the result line the benchmark prints last.
type record struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares a metric the record always carries.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
// Every workload reports each of them; NOTES.md gives each workload's
// definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "MIPS"},
	{"warm_p50_ms", "ms"},
	{"p50_ms", "ms"},
	{"rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload never reaches reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{}
	for _, g := range cpuGroups {
		defs = append(defs, metricDef{g, "%"})
	}
	return append(defs, []metricDef{
		{"span.op.self_s", "s"},
		{"span.queue.self_s", "s"},
		{"span.sim.self_s", "s"},
		{"span.server.self_s", "s"},
		{"sim.lanes", "count"},
		{"sim.runs", "count"},
		{"sim.minsns", "Minsns"},
		{"cache.mlc_hit_rate", "ratio"},
		{"bpu.mispredict_rate", "ratio"},
		{"pvt.hit_rate", "ratio"},
		{"cde.invocations", "count"},
		{"runner.sims", "count"},
		{"runner.queue_p50_ms", "ms"},
		{"runner.busy_p50_ms", "ms"},
		{"rescache.stores", "count"},
		{"rescache.hits", "count"},
		{"rescache.misses", "count"},
		{"rescache.hit_frac", "ratio"},
		{"rescache.mb", "MB"},
		{"events.per_req", "count"},
		{"events.dropped", "count"},
		{"http.server_p50_ms", "ms"},
		{"http.overhead_p50_ms", "ms"},
		{"http.errors", "count"},
		{"http.abandoned", "count"},
		{"http.wasted_s", "s"},
		{"http.useful_frac", "ratio"},
		{"http.repeat_frac", "ratio"},
		{"p90_ms", "ms"},
		{"gc.cycles", "count"},
		{"alloc.mb", "MB"},
		{"proc.cpu_s", "s"},
		{"host.probe_ms", "ms"},
		{"host.steal_frac", "ratio"},
		{"trace.overhead", "ratio"},
	}...)
}()

// metrics collects a run's values by name; the unit comes from the
// declarations above when the record is assembled.
type metrics map[string]float64

// tally counts the operations a run attempted and those whose output
// failed its check, keeping the first few failure reasons for stderr.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) pass() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 10 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// config is what a workload receives.
type config struct {
	seed    uint64
	seconds float64
	// traced attaches the observers of a traced pass: spans, the CPU
	// profile and the program's progress callbacks.
	traced bool
	// powerchop is the CLI binary the serve workload executes.
	powerchop string
	// dir is this pass's private working directory, removed at the end.
	dir string
	// traceDir keeps a traced pass's spans and CPU profile.
	traceDir string
	pins     *pins
}

// outcome is what one pass of a workload returns.
type outcome struct {
	tally
	e2e   metrics
	layer metrics
	// wall is the timed phase's duration, the base of trace.overhead.
	wall float64
	// profile is the CPU profile of a traced pass (empty untraced).
	profile string
}

type workloadFunc func(context.Context, config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sweep":   runSweep,
	"figures": runFigures,
	"serve":   runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, figures or serve")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "run length the workload sizes its work to")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	bin := fs.String("powerchop", "", "powerchop CLI binary (serve workload)")
	workdir := fs.String("workdir", ".bench_build/run", "parent of each run's working directory")
	pinOut := fs.String("pin", "", "regenerate the pinned digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pinOut != "" {
		if err := writePins(*pinOut); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload sweep|figures|serve, -seconds > 0, -trace 0|1\n")
		return 2
	}
	rec, err := measure(wl, *name, *seed, *seconds, *trace == 1, *bin, *workdir, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the workload (twice when traced) between two host
// probes and assembles the result record.
func measure(wl workloadFunc, name string, seed uint64, seconds float64, traced bool, bin, workdir string, stdout, log io.Writer) (*record, error) {
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	cfg := config{seed: seed, seconds: seconds, powerchop: bin, pins: p}
	host := startHost()
	pass := func(sub string, traced bool) (*outcome, error) {
		cfg.dir, cfg.traced = filepath.Join(dir, sub), traced
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, err
		}
		if traced {
			cfg.traceDir = filepath.Join(workdir, "trace-"+name)
			if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
				return nil, err
			}
		}
		return wl(ctx, cfg)
	}
	base, err := pass("untraced", false)
	if err != nil {
		return nil, err
	}
	total := base.tally
	values, defs := base.e2e, endToEnd
	if traced {
		cpu := selfCPUSeconds()
		tr, err := pass("traced", true)
		if err != nil {
			return nil, err
		}
		total.add(tr.tally)
		values, defs = tr.layer, perLayer
		if tr.profile != "" {
			shares, err := profileShares(tr.profile)
			if err != nil {
				return nil, err
			}
			for g, v := range shares {
				values[g] = v
			}
		}
		values["trace.overhead"] = tr.wall / base.wall
		if _, ok := values["proc.cpu_s"]; !ok {
			values["proc.cpu_s"] = selfCPUSeconds() - cpu
		}
	}
	diag := host.finish()
	if traced {
		values["host.probe_ms"] = diag.ProbeMS
		values["host.steal_frac"] = diag.StealFrac
	}
	diagLine, _ := json.Marshal(diag)
	fmt.Fprintf(stdout, "perfbench: host %s\n", diagLine)
	for _, r := range total.reasons {
		fmt.Fprintln(log, "perfbench: FAILED", r)
	}

	rec := &record{
		Correct:   total.failed == 0 && total.attempted > 0,
		Attempted: total.attempted,
		Failed:    total.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		rec.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	if traced {
		fmt.Fprint(log, layerTable(name, rec.Metrics))
	}
	return rec, nil
}

// layerTable renders the traced run's CPU shares, largest first, for
// stderr and NOTES.md.
func layerTable(name string, m map[string]metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CPU profile by layer (%s):\n", name)
	var groups []string
	for _, g := range cpuGroups {
		if m[g].Value > 0 {
			groups = append(groups, g)
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return m[groups[i]].Value > m[groups[j]].Value })
	for _, g := range groups {
		fmt.Fprintf(&b, "  %-16s %6.2f%%\n", g, m[g].Value)
	}
	return b.String()
}

// hostInfo is the run record's host-noise diagnostics: never gated,
// they let a reader tell host drift from a regression.
type hostInfo struct {
	ProbeStartMS float64 `json:"probe_start_ms"`
	ProbeEndMS   float64 `json:"probe_end_ms"`
	ProbeMS      float64 `json:"probe_ms"`
	StealFrac    float64 `json:"steal_frac"`
	CPUSeconds   float64 `json:"proc_cpu_s"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
}

type hostProbe struct {
	info  hostInfo
	steal cpuTicks
}

func startHost() *hostProbe {
	h := &hostProbe{}
	h.info.ProbeStartMS = spinProbe()
	h.steal, _ = readCPUTicks()
	return h
}

func (h *hostProbe) finish() hostInfo {
	end, err := readCPUTicks()
	if err == nil {
		h.info.StealFrac = end.stealSince(h.steal)
	}
	h.info.ProbeEndMS = spinProbe()
	h.info.ProbeMS = (h.info.ProbeStartMS + h.info.ProbeEndMS) / 2
	h.info.CPUSeconds = selfCPUSeconds()
	h.info.NumCPU = runtime.NumCPU()
	h.info.GOMAXPROCS = runtime.GOMAXPROCS(0)
	h.info.GoVersion = runtime.Version()
	return h.info
}
