package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"powerchop"
)

func TestSweepOpsFollowSeed(t *testing.T) {
	a, b := sweepOps(7, 20), sweepOps(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different sweep op lists")
	}
	c := sweepOps(8, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same sweep op list")
	}
	// Every seed drives the same lanes of the same benchmarks and
	// policies, so seeds do not differ in work.
	shape := func(ops []sweepOp) map[string]int {
		m := map[string]int{}
		for _, op := range ops {
			m[op.Bench+"/"+op.Policy] += op.lanes()
		}
		return m
	}
	if !reflect.DeepEqual(shape(a), shape(c)) {
		t.Fatal("seeds 7 and 8 drive different benchmark × policy lanes")
	}
}

func TestServeMixFollowsSeed(t *testing.T) {
	a, b := serveMix(7, 120), serveMix(7, 120)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different serve mixes")
	}
	if reflect.DeepEqual(a, serveMix(8, 120)) {
		t.Fatal("seeds 7 and 8 gave the same serve mix")
	}
}

func TestServeMixShares(t *testing.T) {
	var n, abandoned, repeats int
	for seed := uint64(0); seed < 20; seed++ {
		seen := map[string]bool{}
		for _, q := range serveMix(seed, 120) {
			n++
			if q.Abandon {
				abandoned++
			}
			if q.Repeat != seen[q.pair()] {
				t.Fatalf("seed %d: %s marked repeat=%v, seen before=%v", seed, q.pair(), q.Repeat, seen[q.pair()])
			}
			if q.Repeat {
				repeats++
			}
			seen[q.pair()] = true
		}
	}
	if got := float64(abandoned) / float64(n); got != serveAbandonShare {
		t.Errorf("abandon share %v, declared %v", got, serveAbandonShare)
	}
	if got := float64(repeats) / float64(n); got != serveRepeatShare {
		t.Errorf("repeat share %v, declared %v", got, serveRepeatShare)
	}
}

func TestSweepOpsStayInBounds(t *testing.T) {
	bounds := map[string]powerchop.ParamSpec{}
	for _, p := range powerchop.Policies() {
		for _, prm := range p.Params {
			bounds[p.Name+"/"+prm.Name] = prm
		}
	}
	small, large := false, false
	for _, op := range sweepOps(3, 40) {
		b, ok := bounds[op.Policy+"/"+op.Param]
		if !ok {
			t.Fatalf("%s has no parameter %s", op.Policy, op.Param)
		}
		seen := map[float64]bool{}
		for _, v := range op.Values {
			if v < b.Min || v > b.Max || seen[v] {
				t.Fatalf("%s %s: value %g repeated or outside [%g, %g]", op.Policy, op.Param, v, b.Min, b.Max)
			}
			seen[v] = true
		}
		if op.Check < 0 || op.Check >= len(op.Values) {
			t.Fatalf("check index %d of %d values", op.Check, len(op.Values))
		}
		small = small || op.lanes() <= 16
		large = large || op.lanes() > 16
	}
	if !small || !large {
		t.Fatal("grid sizes do not fall on both sides of the 16-lane batch cap")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"powerchop/internal/sim.(*frontEnd).record":            "cpu.sim.record",
		"powerchop/internal/sim.(*frontEnd).record.func1":      "cpu.sim.record",
		"powerchop/internal/sim.(*engine).endWindow":           "cpu.sim.window",
		"powerchop/internal/sim.(*vpuUnit).closeShard":         "cpu.sim.window",
		"powerchop/internal/sim.(*engine).takeSample (inline)": "cpu.sim.window",
		"powerchop/internal/sim.(*engine).executeRegion":       "cpu.sim.exec",
		"powerchop/internal/sim.(*mlcUnit).replayPristine":     "cpu.sim.exec",
		"powerchop/internal/cache.lruPromote (inline)":         "cpu.cache",
		"powerchop/internal/cache.(*Hierarchy).ReplayAccess":   "cpu.cache",
		"powerchop/internal/program.(*Walker).Next":            "cpu.program",
		"powerchop/internal/rng.(*Source).Uint64":              "cpu.rng",
		"powerchop/internal/bpu.(*Tournament).Access":          "cpu.bpu",
		"powerchop/internal/pvt.(*Table).Lookup":               "cpu.pvt",
		"powerchop/internal/rescache.(*Cache).Get":             "cpu.rescache",
		"powerchop/internal/experiments.(*Runner).result":      "cpu.experiments",
		"powerchop/internal/obs.(*Collector).Emit":             "cpu.obs",
		"powerchop/internal/obs/serve.(*Hub).Emit":             "cpu.obs",
		"encoding/json.(*decodeState).object":                  "cpu.json",
		"crypto/sha256.block":                                  "cpu.sha256",
		"crypto/internal/fips140/sha256.blockAMD64":            "cpu.sha256",
		"syscall.Syscall6":                                     "cpu.syscall",
		"internal/runtime/syscall.Syscall6":                    "cpu.syscall",
		"net/http.(*conn).serve":                               "cpu.http",
		"runtime.gcBgMarkWorker":                               "cpu.gc",
		"runtime.scanobject":                                   "cpu.gc",
		"runtime.mallocgc":                                     "cpu.malloc",
		"runtime.memclrNoHeapPointers":                         "cpu.malloc",
		"runtime.memmove":                                      "cpu.other",
		"powerchop.(*laneRun).finish":                          "cpu.other",
		"main.runSweep":                                        "cpu.other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

func TestParseTopSumsToAll(t *testing.T) {
	text := `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     500ms 50.00% 50.00%      600ms 60.00%  powerchop/internal/cache.(*Cache).Access
     250ms 25.00% 75.00%      250ms 25.00%  powerchop/internal/sim.(*frontEnd).record
     200ms 20.00% 95.00%      200ms 20.00%  runtime.gcBgMarkWorker
      50ms  5.00%   100%       50ms  5.00%  runtime.memmove (inline)
         0     0%   100%     1000ms   100%  runtime.goexit
`
	shares, err := parseTop(text)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, g := range cpuGroups {
		sum += shares[g]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Fatalf("shares sum to %v%%", sum)
	}
	want := map[string]float64{"cpu.cache": 50, "cpu.sim.record": 25, "cpu.gc": 20, "cpu.other": 5}
	for g, v := range want {
		if shares[g] != v {
			t.Errorf("%s = %v, want %v", g, shares[g], v)
		}
	}
}

// TestCorruptedPinFails checks that a served Report matches its pin and
// that corrupting the pinned digest turns the request into a failure.
func TestCorruptedPinFails(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	const pair = "sjeng/full-power"
	bench, manager := splitPair(pair)
	rep, err := powerchop.Run(bench, powerchop.Options{Manager: manager})
	if err != nil {
		t.Fatal(err)
	}
	r := served{report: rep}
	ok := runRecord{Outcome: "ok"}
	pin := p.Reports[pair]
	if err := checkServed(r, pin, ok, true); err != nil {
		t.Fatalf("pinned report: %v", err)
	}
	flip := map[byte]string{'0': "1"}[pin.Digest[0]]
	if flip == "" {
		flip = "0"
	}
	pin.Digest = flip + pin.Digest[1:]
	if checkServed(r, pin, ok, true) == nil {
		t.Fatal("a corrupted pinned digest passed")
	}
	if checkHeadline([]powerchop.SuiteAverages{{Suite: "all"}}, p.Headline) == nil {
		t.Fatal("rows that differ from the pinned headline passed")
	}
}

// TestSweepCheckCatchesMismatch verifies one small op and then corrupts
// its grid point.
func TestSweepCheckCatchesMismatch(t *testing.T) {
	op := sweepOp{Bench: "sjeng", Policy: "timeout", Param: "idle-cycles", Values: []float64{5000, 80000}, Check: 1}
	res, err := powerchop.Tune(powerchop.TuneOptions{
		Policy: op.Policy, Benchmarks: []string{op.Bench}, Grid: op.grid(),
		Options: powerchop.Options{Passes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := checkOp(op, res); c.err != nil {
		t.Fatalf("unaltered op failed: %v", c.err)
	}
	for i := range res.Points {
		res.Points[i].Slowdown += 1e-12
	}
	if checkOp(op, res).err == nil {
		t.Fatal("an altered grid point passed")
	}
}

func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), declared %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
