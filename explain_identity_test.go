package powerchop

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/cde"
	"powerchop/internal/obs/audit"
	"powerchop/internal/pvt"
)

// TestExplainAttachedByteIdentical is the decision-provenance determinism
// gate: rendering the full figure set with audit collection, histogram
// metrics and a live /decisions SSE client attached must be byte-identical
// to an unobserved render. The audit layer is a pure observer. It checks
// the render TestMonitorAttachedByteIdentical checks, which carries the
// auditor beside every other observer.
func TestExplainAttachedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure renders are slow; skipped with -short")
	}
	if raceEnabled {
		t.Skip("two full figure renders under the race detector are too slow; " +
			"auditor concurrency is exercised by the unit tests")
	}
	run, err := observedFigures()
	if err != nil {
		t.Fatal(err)
	}

	requirePlainFigures(t, "audited", run.figures)

	// The provenance surfaces must hold up after the render: the
	// /decisions snapshot parses as a trail that saw decisions, and the
	// audit histograms registered alongside the collector's metrics.
	var trail audit.Trail
	if err := json.Unmarshal(run.decisions, &trail); err != nil {
		t.Fatalf("/decisions?format=json: %v", err)
	}
	if len(trail.Decisions) == 0 {
		t.Error("/decisions snapshot has no decision records after a full render")
	}
	if !bytes.Contains(run.metrics, []byte("audit_decision_latency_windows")) {
		t.Error("/metrics missing audit decision-latency histogram")
	}
}

// TestExplainAlgorithm1Reproduction checks that the audit trail carries
// the exact inputs Algorithm 1 saw: re-applying each recorded score to
// its recorded thresholds must reproduce the registered policy bit for
// bit, the thresholds must be the calibrated defaults, and every phase
// that ever ran gated must have a decision record explaining why.
func TestExplainAlgorithm1Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark; skipped with -short")
	}
	rep, err := Run("gobmk", Options{Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Audit == nil {
		t.Fatal("no audit trail on report")
	}
	thr := cde.DefaultThresholds()

	computed := 0
	for _, d := range rep.Audit.Decisions {
		if d.Path != "computed" {
			continue
		}
		computed++
		if len(d.Scores) != 3 {
			t.Fatalf("decision %s@%d has %d scores, want 3", d.Phase, d.Window, len(d.Scores))
		}
		want := pvt.Decode(d.Policy)
		var got pvt.Policy
		for _, s := range d.Scores {
			switch s.Metric {
			case "simd-ratio":
				if s.Threshold != thr.VPU {
					t.Errorf("%s@%d: VPU threshold %v, want %v", d.Phase, d.Window, s.Threshold, thr.VPU)
				}
				got.VPUOn = s.Value > s.Threshold
			case "mispred-delta":
				if s.Threshold != thr.BPU {
					t.Errorf("%s@%d: BPU threshold %v, want %v", d.Phase, d.Window, s.Threshold, thr.BPU)
				}
				got.BPUOn = s.Value > s.Threshold
			case "l2hit-ratio":
				if s.Threshold != thr.MLC1 || s.Threshold2 != thr.MLC2 {
					t.Errorf("%s@%d: MLC thresholds %v/%v, want %v/%v",
						d.Phase, d.Window, s.Threshold, s.Threshold2, thr.MLC1, thr.MLC2)
				}
				switch {
				case s.Value > s.Threshold:
					got.MLC = pvt.MLCAll
				case s.Value <= s.Threshold2:
					got.MLC = pvt.MLCOne
				default:
					got.MLC = pvt.MLCHalf
				}
			default:
				t.Fatalf("%s@%d: unknown score metric %q", d.Phase, d.Window, s.Metric)
			}
		}
		if got != want {
			t.Errorf("%s@%d: replaying scores gives %s, recorded policy %s",
				d.Phase, d.Window, got, want)
		}
	}
	if computed == 0 {
		t.Fatal("run produced no computed decisions to replay")
	}

	// Every phase that accrued gated cycles must be explained: either a
	// decision record registered its policy, or the phase was still being
	// profiled (PVT misses, no registration yet) and inherited residual
	// gating from the preceding policy at the miss boundary.
	recorded := make(map[string]bool)
	for _, d := range rep.Audit.Decisions {
		recorded[d.Phase] = true
	}
	for _, p := range rep.Audit.Phases {
		var gated float64
		for _, g := range p.GatedCycles {
			gated += g
		}
		if gated > 0 && p.Phase != audit.BootPhase && !recorded[p.Phase] && p.Misses == 0 {
			t.Errorf("phase %s ran %v gated cycles with no decision record or miss path", p.Phase, gated)
		}
	}
}

// TestExplainAttributionReconciles checks the attribution sums: the
// per-unit energy the trail attributes across phases must equal the
// power model's per-unit leakage savings, and through that the deltas
// the Compare report exposes.
func TestExplainAttributionReconciles(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three configurations; skipped with -short")
	}
	c, err := Compare("gobmk", Options{Audit: true, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	chop := c.PowerChop
	if chop.Audit == nil {
		t.Fatal("no audit trail on the PowerChop report")
	}

	units := []struct {
		name string
		full UnitReport
		rep  UnitReport
	}{
		{arch.UnitVPU, c.FullPower.VPU, chop.VPU},
		{arch.UnitBPU, c.FullPower.BPU, chop.BPU},
		{arch.UnitMLC, c.FullPower.MLC, chop.MLC},
	}
	for _, u := range units {
		attributed := chop.Audit.EnergySavedJ[u.name]
		// Exactness claim 1: attribution reproduces the power model's
		// per-unit leakage savings.
		if !withinRel(attributed, u.rep.LeakageSavedJ, 1e-9) {
			t.Errorf("%s: attributed %v J, power model saved %v J",
				u.name, attributed, u.rep.LeakageSavedJ)
		}
		// Exactness claim 2: the same total decomposes into the Compare
		// report's observable deltas — the raw leakage reduction plus the
		// extra full-on leakage the slowdown would have cost.
		delta := (u.full.LeakageJ - u.rep.LeakageJ) +
			u.full.LeakageJ*(chop.Seconds/c.FullPower.Seconds-1)
		if !withinRel(attributed, delta, 1e-9) {
			t.Errorf("%s: attributed %v J, Compare deltas give %v J",
				u.name, attributed, delta)
		}
	}

	// Per-phase savings sum to the trail totals.
	sums := make(map[string]float64)
	for _, p := range chop.Audit.Phases {
		for u, j := range p.EnergySavedJ {
			sums[u] += j
		}
	}
	for u, total := range chop.Audit.EnergySavedJ {
		if !withinRel(sums[u], total, 1e-9) {
			t.Errorf("%s: phase savings sum %v J, trail total %v J", u, sums[u], total)
		}
	}
}

func withinRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
