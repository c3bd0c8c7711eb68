package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"powerchop"
	"powerchop/internal/program"
	"powerchop/internal/workload"
)

// sweepOpsPerSecond sizes the sweep: a run does ceil(seconds × rate)
// ops, about -seconds of work (timed ops plus their checks) on the
// 2-vCPU reference host. The work is fixed by -seconds, never by the
// host's speed, so wall_s compares across commits.
const sweepOpsPerSecond = 0.26

// setupReps is how many times a run measures the program's set-up at
// each of two points, before its operations and after them. All of
// them fit in a tenth of a second, so one point would time the host's
// speed of that moment alone.
const setupReps = 100

// programSetup times setupReps runs of the program's one-time set-up
// before a first operation: building and compiling every benchmark
// program, as Run and Tune do.
func programSetup() ([]float64, error) {
	times := make([]float64, setupReps)
	for i := range times {
		start := time.Now()
		for _, name := range powerchop.Benchmarks() {
			b, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			p, err := b.Build()
			if err != nil {
				return nil, err
			}
			program.CompileAll(p)
		}
		times[i] = since(start)
	}
	return times, nil
}

// profile is an in-process CPU profile of a traced pass.
type profile struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profile, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profile{path: path, f: f}, nil
}

func (p *profile) stop() (string, error) {
	pprof.StopCPUProfile()
	return p.path, p.f.Close()
}

// memDelta is the Go runtime's GC cycles and allocated MB since before.
func memDelta(before runtime.MemStats) (gcs, allocMB float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return float64(now.NumGC - before.NumGC), float64(now.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// runSweep runs cold, serial Tune calls with the CLI's tune defaults:
// two passes, no jobs, the default 16-lane batch cap, no cache and no
// observers. Each op's output is then checked outside the timed call:
// one seeded grid point must equal, exactly, the same point computed
// from solo Runs.
func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{e2e: metrics{}, layer: metrics{}}
	setup, err := programSetup()
	if err != nil {
		return nil, err
	}
	ops := sweepOps(cfg.seed, int(math.Ceil(cfg.seconds*sweepOpsPerSecond)))

	var rec *spanRecorder
	var prof *profile
	if cfg.traced {
		rec = newSpanRecorder()
		if prof, err = startProfile(cfg.traceDir); err != nil {
			return nil, err
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	results := make([]*powerchop.TuneResult, len(ops))
	errs := make([]error, len(ops))
	walls := make([]float64, len(ops))
	start := time.Now()
	for i, op := range ops {
		opts := powerchop.TuneOptions{
			Policy:     op.Policy,
			Benchmarks: []string{op.Bench},
			Grid:       op.grid(),
			Options:    powerchop.Options{Passes: 2},
		}
		// No progress callback: Tune's reports name a lane by benchmark
		// and policy only, so the lanes of one op cannot be told apart
		// and a sweep records op spans alone.
		var opStart float64
		if rec != nil {
			opStart = rec.now()
		}
		t := time.Now()
		results[i], errs[i] = powerchop.TuneContext(ctx, opts)
		walls[i] = since(t)
		if rec != nil {
			rec.add(span{Op: i, Layer: "op", Name: op.Bench + "/" + op.Policy, Start: opStart, End: rec.now()})
		}
	}
	wall := since(start)
	if prof != nil {
		if out.profile, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	gcs, allocMB := memDelta(mem)
	later, err := programSetup()
	if err != nil {
		return nil, err
	}

	checks := checkSweep(ops, results, errs)
	var laneInsns float64
	var counters reportCounters
	for i, c := range checks {
		if c.err != nil {
			out.fail("sweep op %d (%s %s %s): %v", i, ops[i].Bench, ops[i].Policy, ops[i].Param, c.err)
			continue
		}
		out.pass()
		laneInsns += float64(ops[i].lanes()) * float64(c.full.Instructions)
		counters.add(c.full)
		counters.add(c.point)
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.wall = wall
	out.e2e["setup_s"] = median(append(setup, later...))
	out.e2e["wall_s"] = wall
	out.e2e["sim_mips"] = laneInsns / wall / 1e6
	// Op latency per lane, as a mean over all lanes: ops on both sides
	// of the batch cap differ in size by design, and a run has too few
	// ops for a steady median (NOTES.md).
	out.e2e["p50_ms"] = wall * 1000 / lanesOf(ops)
	// Every Tune call is cold (no cache), so there is no warm op.
	out.e2e["warm_p50_ms"] = out.e2e["p50_ms"]
	out.e2e["rps"] = float64(len(ops)) / wall
	out.e2e["peak_rss_mb"] = rss

	if rec != nil {
		l := out.layer
		addSelfTimes(l, rec)
		l["sim.lanes"] = lanesOf(ops)
		l["sim.minsns"] = laneInsns / 1e6
		counters.into(l)
		l["p90_ms"] = p90(scale(walls, 1000))
		l["gc.cycles"], l["alloc.mb"] = gcs, allocMB
		if err := rec.write(filepath.Join(cfg.traceDir, "spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lanesOf is the number of lanes the ops drive.
func lanesOf(ops []sweepOp) float64 {
	n := 0
	for _, op := range ops {
		n += op.lanes()
	}
	return float64(n)
}

// grid is the op's Tune grid: the swept parameter's values, every other
// parameter pinned to its default.
func (o sweepOp) grid() map[string][]float64 {
	g := map[string][]float64{}
	for _, p := range policyParams(o.Policy) {
		g[p.Name] = []float64{}
	}
	g[o.Param] = append([]float64(nil), o.Values...)
	return g
}

// policyParams is the registered parameter schema of a policy.
func policyParams(name string) []powerchop.ParamSpec {
	for _, p := range powerchop.Policies() {
		if p.Name == name {
			return p.Params
		}
	}
	return nil
}

// sweepCheck is one op's verification: the solo full-power and grid
// point Runs, or why the op failed.
type sweepCheck struct {
	full, point *powerchop.Report
	err         error
}

// checkSweep verifies every op on nproc workers, outside the timed
// calls.
func checkSweep(ops []sweepOp, results []*powerchop.TuneResult, errs []error) []sweepCheck {
	checks := make([]sweepCheck, len(ops))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if errs[i] != nil {
					checks[i].err = errs[i]
					continue
				}
				checks[i] = checkOp(ops[i], results[i])
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	return checks
}

// checkOp recomputes the op's seeded grid point from two solo Runs, as
// Tune defines it for one benchmark, and requires exact equality.
func checkOp(op sweepOp, res *powerchop.TuneResult) sweepCheck {
	if len(res.Points) != len(op.Values) {
		return sweepCheck{err: fmt.Errorf("%d grid points, want %d", len(res.Points), len(op.Values))}
	}
	want := op.Values[op.Check]
	var pt *powerchop.TunePoint
	for i := range res.Points {
		if res.Points[i].Params[op.Param] == want {
			pt = &res.Points[i]
		}
	}
	if pt == nil {
		return sweepCheck{err: fmt.Errorf("no grid point at %s=%g", op.Param, want)}
	}
	full, err := powerchop.Run(op.Bench, powerchop.Options{Passes: 2, Manager: powerchop.ManagerFullPower})
	if err != nil {
		return sweepCheck{err: err}
	}
	rep, err := powerchop.Run(op.Bench, powerchop.Options{Passes: 2, Manager: op.Policy, Params: pt.Params})
	if err != nil {
		return sweepCheck{err: err}
	}
	fp, err := powerchop.PolicyFingerprint(op.Policy, pt.Params)
	if err != nil {
		return sweepCheck{err: err}
	}
	saved, slow := 1-rep.TotalEnergyJ/full.TotalEnergyJ, rep.Cycles/full.Cycles-1
	switch {
	case fp != pt.Fingerprint:
		err = fmt.Errorf("fingerprint %s, solo %s", pt.Fingerprint, fp)
	case pt.EnergySaved != saved || pt.Slowdown != slow:
		err = fmt.Errorf("point (%v, %v), solo Runs (%v, %v)", pt.EnergySaved, pt.Slowdown, saved, slow)
	case rep.Instructions != full.Instructions:
		err = fmt.Errorf("lanes ran %d and %d instructions", rep.Instructions, full.Instructions)
	}
	return sweepCheck{full: full, point: rep, err: err}
}

// reportCounters accumulates the per-layer counters Reports expose.
type reportCounters struct {
	n                          int
	mlcHit, mispredict, pvtHit float64
	cde                        float64
}

func (c *reportCounters) add(r *powerchop.Report) {
	c.n++
	c.mlcHit += r.MLCHitRate
	c.mispredict += r.MispredictRate
	c.pvtHit += r.PVTHitRate
	c.cde += float64(r.CDEInvocations)
}

// into writes the mean rates and the summed CDE invocations.
func (c *reportCounters) into(m metrics) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	m["cache.mlc_hit_rate"] = c.mlcHit / n
	m["bpu.mispredict_rate"] = c.mispredict / n
	m["pvt.hit_rate"] = c.pvtHit / n
	m["cde.invocations"] = c.cde
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
