package powerchop

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchmarksRegistry(t *testing.T) {
	if got := len(Benchmarks()); got != 29 {
		t.Fatalf("benchmarks = %d, want 29", got)
	}
	if got := len(Suites()); got != 4 {
		t.Fatalf("suites = %d", got)
	}
	sorted := SortedBenchmarks()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatal("SortedBenchmarks not sorted")
		}
	}
	suite, err := SuiteOf("gobmk")
	if err != nil || suite != "SPEC-INT" {
		t.Fatalf("SuiteOf(gobmk) = %q, %v", suite, err)
	}
	if _, err := SuiteOf("quake"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	rep, err := Run("namd", Options{Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manager != ManagerPowerChop || rep.Arch != ArchServer {
		t.Fatalf("defaults: %q/%q", rep.Manager, rep.Arch)
	}
	if rep.IPC <= 0 || rep.Instructions == 0 || rep.AvgPowerW <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	// namd's defining result: the VPU is gated nearly everywhere.
	if rep.VPU.GatedFrac < 0.7 {
		t.Fatalf("namd VPU gated %.2f", rep.VPU.GatedFrac)
	}
	if rep.PhasesSeen == 0 || rep.CDEInvocations == 0 {
		t.Fatal("PowerChop machinery idle")
	}
	if !strings.Contains(rep.String(), "namd") {
		t.Fatal("String() missing benchmark")
	}
}

func TestRunMobileAuto(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	rep, err := Run("msn", Options{Passes: 1, Manager: ManagerFullPower})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arch != ArchMobile {
		t.Fatalf("msn should auto-select mobile, got %q", rep.Arch)
	}
	if rep.VPU.GatedFrac != 0 {
		t.Fatal("full-power run gated the VPU")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("doom", Options{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Run("namd", Options{Manager: "magic"}); err == nil {
		t.Fatal("unknown manager accepted")
	}
	if _, err := Run("namd", Options{Arch: "laptop"}); err == nil {
		t.Fatal("unknown arch accepted")
	}
}

func TestRunSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	rep, err := Run("gobmk", Options{Passes: 1, Manager: ManagerFullPower, SampleInterval: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) < 5 {
		t.Fatalf("samples = %d", len(rep.Samples))
	}
}

func TestThresholdOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	// A huge VPU threshold forces the VPU off even on vector-heavy milc.
	rep, err := Run("milc", Options{Passes: 1, Params: map[string]float64{"vpu": 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.VPU.GatedFrac < 0.5 {
		t.Fatalf("aggressive threshold did not gate: %.2f", rep.VPU.GatedFrac)
	}
}

func TestCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	c, err := Compare("libquantum", Options{Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Slowdown() > 0.05 {
		t.Fatalf("slowdown %.3f", c.Slowdown())
	}
	if c.PowerReduction() <= 0 || c.LeakageReduction() <= 0 || c.EnergyReduction() <= 0 {
		t.Fatalf("no savings: p=%.3f l=%.3f e=%.3f",
			c.PowerReduction(), c.LeakageReduction(), c.EnergyReduction())
	}
	if c.MinPowerLoss() < 0 {
		t.Fatalf("min power loss %.3f", c.MinPowerLoss())
	}
}

func TestCustomWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	w := &Workload{
		Name: "phased-demo",
		Regions: []Region{
			{
				Name: "simd-loop", VectorFrac: 0.2, BranchFrac: 0.05, LoadFrac: 0.1,
				Branches: []Branch{{Kind: BranchBiased, Bias: 0.95}},
				Streams:  []Stream{{WorkingSetBytes: 16 << 10}},
			},
			{
				Name: "scalar-loop", BranchFrac: 0.05, LoadFrac: 0.1,
				Branches: []Branch{{Kind: BranchBiased, Bias: 0.95}},
				Streams:  []Stream{{WorkingSetBytes: 16 << 10}},
			},
		},
		Phases: []WorkloadPhase{
			{Name: "vector", Translations: 40000, Weights: map[int]float64{0: 1}},
			{Name: "scalar", Translations: 40000, Weights: map[int]float64{1: 1}},
		},
	}
	rep, err := RunWorkload(w, Options{Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Arch != ArchServer {
		t.Fatalf("default arch = %q", rep.Arch)
	}
	// The scalar phase is half the run; PowerChop should gate the VPU
	// there and keep it on in the vector phase.
	if rep.VPU.GatedFrac < 0.25 || rep.VPU.GatedFrac > 0.75 {
		t.Fatalf("custom workload VPU gated %.2f", rep.VPU.GatedFrac)
	}
}

func TestCustomWorkloadErrors(t *testing.T) {
	if _, err := RunWorkload(&Workload{}, Options{}); err == nil {
		t.Fatal("nameless workload accepted")
	}
	bad := &Workload{
		Name: "bad",
		Regions: []Region{{
			Name: "r", BranchFrac: 0.1,
			Branches: []Branch{{Kind: "mystery"}},
		}},
		Phases: []WorkloadPhase{{Name: "p", Translations: 10, Weights: map[int]float64{0: 1}}},
	}
	if _, err := RunWorkload(bad, Options{}); err == nil {
		t.Fatal("unknown branch kind accepted")
	}
	noPhases := &Workload{
		Name:    "bad2",
		Regions: []Region{{Name: "r"}},
	}
	if _, err := RunWorkload(noPhases, Options{}); err == nil {
		t.Fatal("workload without phases accepted")
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) < 15 {
		t.Fatalf("figure ids = %d", len(ids))
	}
	want := map[string]bool{
		"table1": true, "fig1": true, "fig8": true, "fig12": true,
		"fig13": true, "fig14": true, "fig16": true, "swcosts": true,
	}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for id := range want {
		if !have[id] {
			t.Errorf("missing figure id %q", id)
		}
	}
	if _, err := FigureTitle("fig12"); err != nil {
		t.Error(err)
	}
	if _, err := FigureTitle("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRenderStaticFigures(t *testing.T) {
	f := NewFigureRunner(0.1)
	var buf bytes.Buffer
	if err := f.RenderFigure(&buf, "table1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Fatalf("table1 output: %q", buf.String())
	}
	buf.Reset()
	if err := f.RenderFigure(&buf, "hwcosts"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HTB") {
		t.Fatal("hwcosts output missing HTB")
	}
	if err := f.RenderFigure(&buf, "fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRenderSimulatedFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs are slow")
	}
	f := NewFigureRunner(0.1)
	var buf bytes.Buffer
	if err := f.RenderFigure(&buf, "fig1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatal("fig1 render missing title")
	}
}
