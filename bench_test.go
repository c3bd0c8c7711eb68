package powerchop

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigureN
// drives the corresponding experiment and prints the paper-shaped rows or
// series once; key aggregates are also attached as custom benchmark
// metrics. The Ablation benchmarks sweep the design choices DESIGN.md
// calls out (criticality thresholds, signature geometry, HTB/PVT sizes,
// timeout periods).

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/experiments"
	"powerchop/internal/phase"
	"powerchop/internal/pvt"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// benchRunner is shared across the figure benchmarks so the underlying
// simulations run once at full scale.
var (
	benchRunnerOnce sync.Once
	benchRunner     *experiments.Runner
)

func figureRunner() *experiments.Runner {
	benchRunnerOnce.Do(func() { benchRunner = experiments.NewRunner(1) })
	return benchRunner
}

// fullPowerRun is the shared runner's full-power run of the benchmark,
// the baseline the ablations normalize against.
func fullPowerRun(bench workload.Benchmark) (*sim.Result, error) {
	spec, err := resolvePolicy(ManagerFullPower)
	if err != nil {
		return nil, err
	}
	l, err := experiments.PolicyLane(spec, nil)
	if err != nil {
		return nil, err
	}
	set, err := figureRunner().ResultSet(context.Background(), []workload.Benchmark{bench}, []experiments.Lane{l})
	if err != nil {
		return nil, err
	}
	return set[0][0], nil
}

// printOnce guards each figure's one-time console rendering.
var printedFigures sync.Map

func printFigure(id, rendering string) {
	if _, done := printedFigures.LoadOrStore(id, true); !done {
		fmt.Fprintf(os.Stdout, "\n==== %s ====\n%s\n", id, rendering)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableI()
		printFigure("Table I", t.Render())
	}
}

func BenchmarkFigure1(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 1", fig.Render())
	}
}

func BenchmarkFigure2(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 2", fig.Render())
	}
}

func BenchmarkFigure3(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure3(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 3", fig.Render())
	}
}

func BenchmarkFigure8(b *testing.B) {
	r := figureRunner()
	var mean float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure8(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		mean = fig.MeanFrac
		printFigure("Figure 8", fig.Render())
	}
	b.ReportMetric(mean*100, "%sig-distance")
}

func BenchmarkFigure9(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure9(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 9", fig.Render())
	}
}

func BenchmarkFigure10(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure10(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 10", fig.Render())
	}
}

func BenchmarkFigure11(b *testing.B) {
	r := figureRunner()
	var vpu float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure11(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		vpu = fig.AvgVPU
		printFigure("Figure 11", fig.Render())
	}
	b.ReportMetric(vpu, "VPU-switch/Mcyc")
}

func BenchmarkFigure12(b *testing.B) {
	r := figureRunner()
	var slow float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure12(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		slow = fig.AvgSlowdown
		printFigure("Figure 12", fig.Render())
	}
	b.ReportMetric(slow*100, "%slowdown")
}

func BenchmarkFigure13(b *testing.B) {
	r := figureRunner()
	var pwr float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure13(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		pwr = fig.AvgPower["all"]
		printFigure("Figure 13", fig.RenderFigure13())
	}
	b.ReportMetric(pwr*100, "%power-reduction")
}

func BenchmarkFigure14(b *testing.B) {
	r := figureRunner()
	var leak float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure14(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		leak = fig.AvgLeakage["all"]
		printFigure("Figure 14", fig.RenderFigure14())
	}
	b.ReportMetric(leak*100, "%leakage-reduction")
}

func BenchmarkFigure15(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure15(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Figure 15", fig.Render())
	}
}

func BenchmarkFigure16(b *testing.B) {
	r := figureRunner()
	var wins float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure16(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		wins = float64(fig.Wins)
		printFigure("Figure 16", fig.Render())
	}
	b.ReportMetric(wins, "chop-wins")
}

func BenchmarkHardwareCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printFigure("Hardware costs", experiments.HardwareCosts().Render())
	}
}

func BenchmarkSoftwareCosts(b *testing.B) {
	r := figureRunner()
	var miss float64
	for i := 0; i < b.N; i++ {
		costs, err := experiments.SoftwareCosts(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		miss = costs.AvgMissPerTranslation
		printFigure("Software costs", costs.Render())
	}
	b.ReportMetric(miss*100, "%pvt-miss")
}

func BenchmarkPerUnitStudy(b *testing.B) {
	r := figureRunner()
	for i := 0; i < b.N; i++ {
		study, err := experiments.PerUnit(context.Background(), r, workload.ServerSuite()[:4])
		if err != nil {
			b.Fatal(err)
		}
		printFigure("Per-unit study", study.Render())
	}
}

// ablationRun executes one PowerChop run for the ablation sweeps.
func ablationRun(b *testing.B, benchName string, cfg core.Config, ph phase.Config) *sim.Result {
	b.Helper()
	bench, err := workload.ByName(benchName)
	if err != nil {
		b.Fatal(err)
	}
	p := bench.MustBuild()
	design := arch.Server()
	if bench.Mobile {
		design = arch.Mobile()
	}
	m, err := core.NewPowerChop(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(p, sim.Config{
		Design:          design,
		Manager:         m,
		Phase:           ph,
		MaxTranslations: uint64(p.TotalScheduleTranslations()),
		TrackQuality:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationThresholds sweeps the criticality thresholds the paper
// leaves unspecified, exposing the savings-vs-slowdown trade-off that
// motivated the defaults (gate more aggressively → more leakage saved,
// more performance risk).
func BenchmarkAblationThresholds(b *testing.B) {
	apps := []string{"gobmk", "soplex", "msn"}
	for _, thr := range []float64{0.001, 0.005, 0.02, 0.1} {
		thr := thr
		b.Run(fmt.Sprintf("thr=%g", thr), func(b *testing.B) {
			var gated, slow float64
			for i := 0; i < b.N; i++ {
				gated, slow = 0, 0
				for _, app := range apps {
					cfg := core.DefaultConfig()
					cfg.Thresholds = cde.Thresholds{VPU: thr, BPU: thr, MLC1: thr, MLC2: thr / 10}
					res := ablationRun(b, app, cfg, phase.DefaultConfig())
					full, err := fullPowerRun(mustBench(b, app))
					if err != nil {
						b.Fatal(err)
					}
					gated += res.VPU.GatedFrac + res.BPU.GatedFrac + res.MLC.GatedFrac
					// The ablation run covers one schedule pass; the
					// cached baseline covers two.
					slow += res.Cycles/(full.Cycles/2) - 1
				}
			}
			n := float64(len(apps))
			b.ReportMetric(gated/n/3*100, "%gated")
			b.ReportMetric(slow/n*100, "%slowdown")
		})
	}
}

// BenchmarkAblationSignature sweeps the phase-signature length and window
// size (the paper's Section IV-B1 sensitivity analysis that settled on
// N=4, W=1000).
func BenchmarkAblationSignature(b *testing.B) {
	cases := []struct {
		sigLen int
		window int
	}{
		{1, 1000}, {2, 1000}, {4, 1000}, {8, 1000},
		{4, 200}, {4, 5000},
	}
	for _, c := range cases {
		c := c
		b.Run(fmt.Sprintf("N=%d_W=%d", c.sigLen, c.window), func(b *testing.B) {
			var quality, phases float64
			for i := 0; i < b.N; i++ {
				ph := phase.Config{Capacity: 128, WindowSize: c.window, SignatureLen: c.sigLen}
				res := ablationRun(b, "gobmk", core.DefaultConfig(), ph)
				quality = res.QualityMeanFrac
				phases = float64(res.QualityPhases)
			}
			b.ReportMetric(quality*100, "%sig-distance")
			b.ReportMetric(phases, "phases")
		})
	}
}

// BenchmarkAblationTableSizes sweeps the HTB and PVT capacities (the
// paper's 128/16 design point).
func BenchmarkAblationTableSizes(b *testing.B) {
	for _, pvtEntries := range []int{4, 16, 64} {
		pvtEntries := pvtEntries
		b.Run(fmt.Sprintf("pvt=%d", pvtEntries), func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.PVTEntries = pvtEntries
				res := ablationRun(b, "msn", cfg, phase.DefaultConfig())
				hitRate = res.PVT.HitRate()
			}
			b.ReportMetric(hitRate*100, "%pvt-hit")
		})
	}
	for _, htb := range []int{16, 128, 512} {
		htb := htb
		b.Run(fmt.Sprintf("htb=%d", htb), func(b *testing.B) {
			var quality float64
			for i := 0; i < b.N; i++ {
				ph := phase.Config{Capacity: htb, WindowSize: 1000, SignatureLen: 4}
				res := ablationRun(b, "gobmk", core.DefaultConfig(), ph)
				quality = res.QualityMeanFrac
			}
			b.ReportMetric(quality*100, "%sig-distance")
		})
	}
}

// BenchmarkAblationTimeout sweeps the idle-timeout baseline's period (the
// paper swept 100-100K cycles and picked 20K).
func BenchmarkAblationTimeout(b *testing.B) {
	bench := mustBench(b, "h264ref")
	p := bench.MustBuild()
	for _, period := range []float64{100, 1000, 20000, 100000} {
		period := period
		b.Run(fmt.Sprintf("t=%g", period), func(b *testing.B) {
			var gated, slow float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewTimeoutVPU(period)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(p, sim.Config{
					Design:          arch.Server(),
					Manager:         m,
					MaxTranslations: uint64(p.TotalScheduleTranslations()),
				})
				if err != nil {
					b.Fatal(err)
				}
				full, err := fullPowerRun(bench)
				if err != nil {
					b.Fatal(err)
				}
				gated = res.VPU.GatedFrac
				// One-pass run vs the cached two-pass baseline.
				slow = res.Cycles/(full.Cycles/2) - 1
			}
			b.ReportMetric(gated*100, "%gated")
			b.ReportMetric(slow*100, "%slowdown")
		})
	}
}

// BenchmarkRunBatch measures the batched sweep executor against running
// the same eight manager variants serially through sim.Run. One op is one
// eight-lane sweep of bzip2; the serial baseline is timed once up front
// and the serial/batched ratio is attached as the speedup metric (the
// acceptance bar is >= 2x at batch >= 8).
func BenchmarkRunBatch(b *testing.B) {
	bench := mustBench(b, "bzip2")
	p := bench.MustBuild()
	const lanes = 8
	mkCfg := func(i int) sim.Config {
		cfg := core.DefaultConfig()
		cfg.Thresholds.VPU *= 1 + float64(i)/4
		cfg.Thresholds.BPU *= 1 + float64(i%3)/2
		return sim.Config{
			Design:          arch.Server(),
			Manager:         core.MustPowerChop(cfg),
			MaxTranslations: 20000,
		}
	}

	start := time.Now()
	for i := 0; i < lanes; i++ {
		if _, err := sim.Run(p, mkCfg(i)); err != nil {
			b.Fatal(err)
		}
	}
	serial := time.Since(start)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs := make([]sim.Config, lanes)
		for j := range cfgs {
			cfgs[j] = mkCfg(j)
		}
		if _, err := sim.RunBatch(p, cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	batched := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(serial.Seconds()/batched.Seconds(), "speedup")
	b.ReportMetric(serial.Seconds(), "serial-s")
}

// BenchmarkWarmCache measures a warm-cache full figure render against the
// cold render that populated it. The warm/cold ratio is attached as a
// metric; the acceptance bar is warm < 10% of cold.
func BenchmarkWarmCache(b *testing.B) {
	const scale = 0.02
	cache := rescache.New(b.TempDir(), nil)
	start := time.Now()
	if err := NewFigureRunner(scale, WithCache(cache)).RenderAll(io.Discard); err != nil {
		b.Fatal(err)
	}
	cold := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewFigureRunner(scale, WithCache(cache)).RenderAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits == 0 {
		b.Fatal("warm renders hit nothing")
	}
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(cold.Seconds(), "cold-s")
	b.ReportMetric(100*warm.Seconds()/cold.Seconds(), "%of-cold")
}

func mustBench(b *testing.B, name string) workload.Benchmark {
	b.Helper()
	bench, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return bench
}

// BenchmarkAblationEnergyMin compares the default policy against the
// paper's suggested aggressive energy-minimization variant (Section V-A)
// across three representative apps.
func BenchmarkAblationEnergyMin(b *testing.B) {
	apps := []string{"gobmk", "msn", "soplex"}
	for _, cfgCase := range []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.DefaultConfig()},
		{"energy-min", core.EnergyMinimizerConfig()},
	} {
		cfgCase := cfgCase
		b.Run(cfgCase.name, func(b *testing.B) {
			var energyRed, slow float64
			for i := 0; i < b.N; i++ {
				energyRed, slow = 0, 0
				for _, app := range apps {
					res := ablationRun(b, app, cfgCase.cfg, phase.DefaultConfig())
					full, err := fullPowerRun(mustBench(b, app))
					if err != nil {
						b.Fatal(err)
					}
					// Normalize the half-length ablation run against the
					// full baseline per cycle.
					energyRed += 1 - (res.Power.TotalEnergyJ()/res.Cycles)/(full.Power.TotalEnergyJ()/full.Cycles)
					slow += res.Cycles/(full.Cycles/2) - 1
				}
			}
			n := float64(len(apps))
			b.ReportMetric(energyRed/n*100, "%energy-rate-reduction")
			b.ReportMetric(slow/n*100, "%slowdown")
		})
	}
}

// BenchmarkAblationPVTReplacement compares PVT eviction policies: the
// paper's approximate LRU (tree-PLRU) against exact LRU and random, on a
// phase-rich mobile workload under a deliberately small PVT so eviction
// quality matters.
func BenchmarkAblationPVTReplacement(b *testing.B) {
	for _, repl := range []pvt.Replacement{pvt.TreePLRU, pvt.TrueLRU, pvt.Random} {
		repl := repl
		b.Run(repl.String(), func(b *testing.B) {
			var hit float64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				cfg.PVTEntries = 4
				cfg.Replacement = repl
				res := ablationRun(b, "msn", cfg, phase.DefaultConfig())
				hit = res.PVT.HitRate()
			}
			b.ReportMetric(hit*100, "%pvt-hit")
		})
	}
}

// BenchmarkRenderAll compares the serial figure pipeline against the
// concurrent one (singleflight-deduplicated worker pool, GOMAXPROCS
// jobs). Each iteration builds a fresh FigureRunner so the memoization
// cache cannot carry work between iterations; output goes to io.Discard
// after a byte-identity check is covered by TestRenderAllParallelByteIdentical.
func BenchmarkRenderAllSerial(b *testing.B)   { benchmarkRenderAll(b, 1) }
func BenchmarkRenderAllParallel(b *testing.B) { benchmarkRenderAll(b, 0) }

func benchmarkRenderAll(b *testing.B, jobs int) {
	for i := 0; i < b.N; i++ {
		f := NewFigureRunner(0.05, WithJobs(jobs))
		if err := f.RenderAll(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTune measures a tuner sweep (timeout policy, 5-point grid
// over gobmk) cold — populating a fresh result cache — and then warm,
// where every grid point and the baseline serve from the cache. The
// warm/cold ratio is attached as a metric, mirroring BenchmarkWarmCache.
func BenchmarkTune(b *testing.B) {
	cache := rescache.New(b.TempDir(), nil)
	opts := TuneOptions{
		Policy:     ManagerTimeout,
		Benchmarks: []string{"gobmk"},
		Grid:       map[string][]float64{"idle-cycles": {5000, 10000, 20000, 40000, 80000}},
		Options:    Options{Passes: 0.5, Cache: cache},
	}
	start := time.Now()
	res, err := Tune(opts)
	if err != nil {
		b.Fatal(err)
	}
	cold := time.Since(start)
	if len(res.Frontier) == 0 {
		b.Fatal("empty Pareto frontier")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tune(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits == 0 {
		b.Fatal("warm sweeps hit nothing")
	}
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(len(res.Points)), "grid-points")
	b.ReportMetric(cold.Seconds(), "cold-s")
	b.ReportMetric(100*warm.Seconds()/cold.Seconds(), "%of-cold")
}
