package experiments

import (
	"context"
	"strings"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/workload"
)

// TestPowerTraceShape pins the figure's structure: one power-fraction
// series per managed unit plus IPC, each with one value per window, and
// fractions inside [0, 1].
func TestPowerTraceShape(t *testing.T) {
	r := runner(t)
	fig, err := PowerTrace(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4 (VPU/BPU/MLC fracs + IPC)", len(fig.Series))
	}
	for _, want := range []string{"power-frac VPU", "power-frac BPU", "power-frac MLC", "IPC"} {
		found := false
		for _, s := range fig.Series {
			if s.Label == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing series %q", want)
		}
	}
	n := len(fig.Series[0].Values)
	if n == 0 {
		t.Fatal("empty power-frac series")
	}
	for _, s := range fig.Series[:3] {
		if len(s.Values) != n {
			t.Errorf("series %s has %d values, want %d", s.Label, len(s.Values), n)
		}
		for i, v := range s.Values {
			if v < 0 || v > 1 {
				t.Fatalf("series %s value %d = %v outside [0,1]", s.Label, i, v)
			}
		}
	}
	if out := fig.Render(); !strings.Contains(out, "Power trace") {
		t.Errorf("render missing title:\n%s", out)
	}
}

// TestRunnerTelemetryPassive pins that a telemetry run returns the same
// measurements as the canonical cached run of the same key.
func TestRunnerTelemetryPassive(t *testing.T) {
	r := runner(t)
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := result(r, b, powerChop)
	if err != nil {
		t.Fatal(err)
	}
	ts := tsdb.NewStore(tsdb.DefaultConfig())
	teled, err := result(r, b, telemetry(powerChop, ts))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != teled.Cycles || plain.GuestInsns != teled.GuestInsns {
		t.Errorf("telemetry perturbed the run: cycles %v vs %v, insns %d vs %d",
			plain.Cycles, teled.Cycles, plain.GuestInsns, teled.GuestInsns)
	}
	res, err := ts.Query(tsdb.Query{Series: tsdb.SeriesUnitFracPrefix + arch.UnitVPU})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Points)) == 0 || uint64(len(res.Points)) > teled.Windows {
		t.Errorf("VPU frac points = %d, windows = %d", len(res.Points), teled.Windows)
	}
}
