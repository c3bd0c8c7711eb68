package sim

import (
	"fmt"
	"reflect"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
)

// batchManagers is the manager mix exercised by the batch identity tests:
// phase-directed gating, the timeout baseline, and both static extremes,
// so lanes diverge in gating decisions, stall cycles and window content.
func batchManagers(t testing.TB) []func() core.Manager {
	return []func() core.Manager{
		func() core.Manager { return core.MustPowerChop(core.DefaultConfig()) },
		func() core.Manager {
			m, err := core.NewTimeoutVPU(20000)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		func() core.Manager { return core.AlwaysOn() },
		func() core.Manager { return core.MinPower() },
	}
}

// requireIdentical fails the test when a batched lane's Result is not
// byte-identical to the solo Run it must reproduce.
func requireIdentical(t *testing.T, label string, batched, solo *Result) {
	t.Helper()
	if batched == nil {
		t.Fatalf("%s: nil batched result", label)
	}
	if batched.Cycles != solo.Cycles {
		t.Errorf("%s: cycles diverge: batched %v, solo %v", label, batched.Cycles, solo.Cycles)
	}
	if !reflect.DeepEqual(batched, solo) {
		t.Errorf("%s: results diverge:\nbatched %+v\nsolo    %+v", label, batched, solo)
	}
}

// TestRunBatchMatchesSolo drives a mixed-manager batch — different gating
// behaviour, different run budgets, sampling on, translation quality
// tracked on the PowerChop lane — and pins every lane to its solo Run.
func TestRunBatchMatchesSolo(t *testing.T) {
	p := vectorPhasedProgram(t)
	mks := batchManagers(t)
	mkCfg := func(mk func() core.Manager, translations uint64, quality bool) Config {
		return Config{
			Design:          arch.Server(),
			Manager:         mk(),
			Phase:           smallPhaseConfig(),
			MaxTranslations: translations,
			SampleInterval:  2000,
			TrackQuality:    quality,
		}
	}
	var cfgs []Config
	budgets := []uint64{4000, 4000, 2500, 4000}
	quality := []bool{true, false, false, false}
	for i, mk := range mks {
		cfgs = append(cfgs, mkCfg(mk, budgets[i], quality[i]))
	}
	batched, err := RunBatch(p, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, mk := range mks {
		solo := MustRun(vectorPhasedProgram(t), mkCfg(mk, budgets[i], quality[i]))
		requireIdentical(t, fmt.Sprintf("lane %d (%s)", i, solo.Manager), batched[i], solo)
	}
}

// TestRunBatchLaneCounts sweeps the lane count — including the
// single-lane batch, which must take the solo path and still agree — with
// per-lane parameter perturbations so no two lanes behave identically.
func TestRunBatchLaneCounts(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16} {
		t.Run(fmt.Sprintf("lanes=%d", n), func(t *testing.T) {
			mkCfg := func(i int) Config {
				cfg := core.DefaultConfig()
				cfg.Thresholds.VPU *= 1 + float64(i)/4
				cfg.Thresholds.BPU *= 1 + float64(i%3)/2
				return Config{
					Design:          arch.Server(),
					Manager:         core.MustPowerChop(cfg),
					Phase:           smallPhaseConfig(),
					MaxTranslations: 3000,
					SampleInterval:  1500,
				}
			}
			cfgs := make([]Config, n)
			for i := range cfgs {
				cfgs[i] = mkCfg(i)
			}
			batched, err := RunBatch(vectorPhasedProgram(t), cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				solo := MustRun(vectorPhasedProgram(t), mkCfg(i))
				requireIdentical(t, fmt.Sprintf("lane %d", i), batched[i], solo)
			}
		})
	}
}

// TestRunBatchMixedDesigns puts server and mobile design points in one
// call: their L1/small-predictor shapes differ, so they must land in
// separate front-end groups and still each match solo.
func TestRunBatchMixedDesigns(t *testing.T) {
	mkCfg := func(d arch.Design) Config {
		return Config{
			Design:          d,
			Manager:         core.MustPowerChop(core.DefaultConfig()),
			Phase:           smallPhaseConfig(),
			MaxTranslations: 3000,
		}
	}
	designs := []arch.Design{arch.Server(), arch.Mobile(), arch.Server(), arch.Mobile()}
	cfgs := make([]Config, len(designs))
	for i, d := range designs {
		cfgs[i] = mkCfg(d)
	}
	batched, err := RunBatch(vectorPhasedProgram(t), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range designs {
		solo := MustRun(vectorPhasedProgram(t), mkCfg(d))
		requireIdentical(t, fmt.Sprintf("lane %d (%s)", i, d.Name), batched[i], solo)
	}
}

// TestRunBatchObserversForceSolo pins the documented fallback: lanes with
// a tracer, metrics, audit or telemetry attachment run solo inside
// RunBatch, producing the identical Result — and the identical event
// stream — as a direct Run with the same observers.
func TestRunBatchObserversForceSolo(t *testing.T) {
	p := vectorPhasedProgram(t)
	plain := func() Config {
		return Config{
			Design:          arch.Server(),
			Manager:         core.MustPowerChop(core.DefaultConfig()),
			Phase:           smallPhaseConfig(),
			MaxTranslations: 3000,
		}
	}

	ring := obs.NewRing(1 << 16)
	traced := plain()
	traced.Tracer = ring
	metered := plain()
	metered.Metrics = true
	audited := plain()
	audited.Audit = true

	batched, err := RunBatch(p, []Config{plain(), traced, metered, audited, plain()})
	if err != nil {
		t.Fatal(err)
	}

	soloRing := obs.NewRing(1 << 16)
	soloTraced := plain()
	soloTraced.Tracer = soloRing
	soloT := MustRun(vectorPhasedProgram(t), soloTraced)
	requireIdentical(t, "traced lane", batched[1], soloT)
	batchEvents, soloEvents := ring.Events(), soloRing.Events()
	if len(batchEvents) != len(soloEvents) {
		t.Fatalf("event counts diverge: batched %d, solo %d", len(batchEvents), len(soloEvents))
	}
	for i := range batchEvents {
		if batchEvents[i] != soloEvents[i] {
			t.Fatalf("event %d diverges:\nbatched %+v\nsolo    %+v", i, batchEvents[i], soloEvents[i])
		}
	}

	soloM := MustRun(vectorPhasedProgram(t), func() Config { c := plain(); c.Metrics = true; return c }())
	if batched[2].Metrics == nil || soloM.Metrics == nil {
		t.Fatal("metrics snapshot missing")
	}
	soloA := MustRun(vectorPhasedProgram(t), func() Config { c := plain(); c.Audit = true; return c }())
	if batched[3].Audit == nil || soloA.Audit == nil {
		t.Fatal("audit trail missing")
	}

	soloPlain := MustRun(vectorPhasedProgram(t), plain())
	requireIdentical(t, "plain lane 0", batched[0], soloPlain)
	requireIdentical(t, "plain lane 4", batched[4], soloPlain)
}

// TestRunBatchValidation checks the error paths: an invalid lane rejects
// the whole batch with the lane's index in the error, and an empty batch
// is a no-op.
func TestRunBatchValidation(t *testing.T) {
	p := vectorPhasedProgram(t)
	good := Config{
		Design:          arch.Server(),
		Manager:         core.AlwaysOn(),
		Phase:           smallPhaseConfig(),
		MaxTranslations: 100,
	}
	bad := good
	bad.Manager = nil
	if _, err := RunBatch(p, []Config{good, bad}); err == nil {
		t.Fatal("invalid lane accepted")
	}
	res, err := RunBatch(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

// TestRunBatchProgress checks that batched lanes still drive their
// per-lane Progress callbacks: counts advance monotonically and finish
// with a Done report at the lane's own budget.
func TestRunBatchProgress(t *testing.T) {
	var got []Progress
	cfgA := Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		Phase:           smallPhaseConfig(),
		MaxTranslations: 3000,
		Progress:        func(pr Progress) { got = append(got, pr) },
	}
	cfgB := Config{
		Design:          arch.Server(),
		Manager:         core.AlwaysOn(),
		Phase:           smallPhaseConfig(),
		MaxTranslations: 3000,
	}
	if _, err := RunBatch(vectorPhasedProgram(t), []Config{cfgA, cfgB}); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no progress reports")
	}
	last := got[len(got)-1]
	if !last.Done || last.Translations != 3000 {
		t.Fatalf("final report %+v", last)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Translations < got[i-1].Translations {
			t.Fatalf("translations regressed at %d: %+v -> %+v", i, got[i-1], got[i])
		}
	}
}

// scripted is a test manager that enacts script[i] from window i on, the
// last entry holding for the rest of the run.
type scripted struct {
	script []pvt.Policy
	n      int
}

func (m *scripted) Name() string { return "scripted" }

func (m *scripted) Boot() core.Directive { return core.Directive{Policy: m.script[0]} }

func (m *scripted) WindowEnd(core.WindowReport) core.Directive {
	m.n++
	return core.Directive{Policy: m.script[min(m.n, len(m.script)-1)]}
}

// TestRunBatchNodes pins the front-end's node lifecycle through its node
// counters: which lanes share an MLC or large-predictor node, when a node
// is gated in place or cloned, and when one stops being driven. Every
// lane must still equal its solo run.
func TestRunBatchNodes(t *testing.T) {
	const n = 3000
	full, half, one := pvt.FullOn, pvt.FullOn, pvt.FullOn
	half.MLC, one.MLC = pvt.MLCHalf, pvt.MLCOne
	bpuOff := pvt.FullOn
	bpuOff.BPUOn = false
	lane := func(budget uint64, mk func() core.Manager) func() Config {
		return func() Config {
			return Config{
				Design:          arch.Server(),
				Manager:         mk(),
				Phase:           smallPhaseConfig(),
				MaxTranslations: budget,
			}
		}
	}
	script := func(ps ...pvt.Policy) func() core.Manager {
		return func() core.Manager { return &scripted{script: ps} }
	}
	minPower := func() core.Manager { return core.MinPower() }
	fullPower := func() core.Manager { return core.AlwaysOn() }
	for _, tc := range []struct {
		name  string
		lanes []func() Config
		check func(t *testing.T, st nodeStats)
	}{
		{
			// Four min-power lanes gate at boot: the first clones the
			// root, the rest join the clone, and the root, with no lane
			// left on it, is never driven. Their predictors power off
			// at boot, so no predictor node is ever driven.
			name:  "identical histories share one node",
			lanes: []func() Config{lane(n, minPower), lane(n, minPower), lane(n, minPower), lane(n, minPower)},
			check: func(t *testing.T, st nodeStats) {
				want := nodeStats{mlcNodes: 2, bpuNodes: 1, mlcDriven: n}
				if st != want {
					t.Errorf("stats %+v, want %+v", st, want)
				}
			},
		},
		{
			// Two lanes leave the root at window 3: after that only
			// their shared clone is driven.
			name:  "the root is retired once no lane is on it",
			lanes: []func() Config{lane(n, script(full, full, full, one)), lane(n, script(full, full, full, one))},
			check: func(t *testing.T, st nodeStats) {
				if st.mlcNodes != 2 || st.mlcDriven != n {
					t.Errorf("stats %+v, want 2 MLC nodes driven %d times in all", st, n)
				}
			},
		},
		{
			// Gating one node to different way counts at one boundary
			// makes one node per count: four ways, one way, and the
			// root the full-power lane stays on.
			name:  "different ways at one boundary do not share",
			lanes: []func() Config{lane(n, script(half)), lane(n, script(one)), lane(n, script(half)), lane(n, fullPower)},
			check: func(t *testing.T, st nodeStats) {
				if st.mlcNodes != 3 || st.mlcDriven != 3*n {
					t.Errorf("stats %+v, want 3 MLC nodes driven %d times each", st, n)
				}
			},
		},
		{
			// A lone lane gates the root itself.
			name:  "a lone lane gates its node in place",
			lanes: []func() Config{lane(n, minPower)},
			check: func(t *testing.T, st nodeStats) {
				if st.mlcNodes != 1 || st.mlcDriven != n {
					t.Errorf("stats %+v, want 1 MLC node driven %d times", st, n)
				}
			},
		},
		{
			// The scripted lane clones the root (the full-power lane
			// stays on it) when it drops to one way, and powers its
			// clone back up in place: it never rejoins the root, whose
			// lost lines its own MLC no longer holds.
			name:  "a lane goes 8 to 1 to 8 ways",
			lanes: []func() Config{lane(n, script(full, full, one, one, one, full)), lane(n, fullPower)},
			check: func(t *testing.T, st nodeStats) {
				if st.mlcNodes != 2 || st.mlcDriven <= n || st.mlcDriven >= 2*n {
					t.Errorf("stats %+v, want 2 MLC nodes, the clone driven from window 2", st)
				}
			},
		},
		{
			// Boot powers every predictor on one root node; two lanes
			// power off at boot and back on at window 3 onto one node,
			// a third at window 4 onto another.
			name: "lanes re-enabling the predictor together share one node",
			lanes: []func() Config{
				lane(n, fullPower),
				lane(n, script(bpuOff, bpuOff, bpuOff, full)),
				lane(n, script(bpuOff, bpuOff, bpuOff, full)),
				lane(n, script(bpuOff, bpuOff, bpuOff, bpuOff, full)),
			},
			check: func(t *testing.T, st nodeStats) {
				if st.bpuNodes != 3 || st.bpuDriven >= 3*n {
					t.Errorf("stats %+v, want 3 predictor nodes", st)
				}
			},
		},
		{
			// The full-power lane stops at 1000 executions and takes
			// the root MLC and predictor with it.
			name:  "a lane with a smaller budget releases its nodes",
			lanes: []func() Config{lane(1000, fullPower), lane(n, minPower)},
			check: func(t *testing.T, st nodeStats) {
				want := nodeStats{mlcNodes: 2, bpuNodes: 1, mlcDriven: 1000 + n, bpuDriven: 1000}
				if st != want {
					t.Errorf("stats %+v, want %+v", st, want)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := vectorPhasedProgram(t)
			cfgs := make([]Config, len(tc.lanes))
			lanes := make([]int, len(tc.lanes))
			for i, mk := range tc.lanes {
				cfgs[i], lanes[i] = mk(), i
			}
			results := make([]*Result, len(cfgs))
			st, err := runGroup(p, keyOf(&cfgs[0]), program.CompileAll(p), cfgs, lanes, results)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, st)
			for i, mk := range tc.lanes {
				requireIdentical(t, fmt.Sprintf("lane %d", i), results[i], MustRun(vectorPhasedProgram(t), mk()))
			}
		})
	}
}
