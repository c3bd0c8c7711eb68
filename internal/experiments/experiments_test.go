package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/workload"
)

// Shared reduced-scale runner: the experiment tests verify structure and
// qualitative shape, not full-scale magnitudes.
var (
	testRunnerOnce sync.Once
	testRunner     *Runner
)

func runner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	testRunnerOnce.Do(func() { testRunner = NewParallelRunner(0.15, 0) })
	return testRunner
}

// TestManagerKinds checks every figure template builds a manager and
// that the registered policies among them are keyed by fingerprint like
// any other run of the policy.
func TestManagerKinds(t *testing.T) {
	for _, l := range figureTemplates {
		m, err := l.Manager()
		if err != nil || m == nil {
			t.Errorf("%s: Manager() = %v, %v", l.ManagerKey, m, err)
		}
	}
	for _, c := range []struct {
		l    Lane
		want string
	}{
		{fullPower, "full-power{}"},
		{minPower, "min-power{}"},
		{timeout, "timeout{idle-cycles=20000}"},
		{powerChop, "powerchop{bpu=0.005,mlc1=0.005,mlc2=0.0005,vpu=0.005}"},
		{smallBPU, "small-bpu"},
		{chopVPU, "powerchop-vpu"},
	} {
		if c.l.ManagerKey != c.want {
			t.Errorf("manager key %q, want %q", c.l.ManagerKey, c.want)
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := runner(t)
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := result(r, b, fullPower)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := result(r, b, fullPower)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("runner did not cache")
	}
}

func TestFigure1VectorIntensityVaries(t *testing.T) {
	r := runner(t)
	fig, err := Figure1(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	vec := fig.Series[0].Values
	if len(vec) < 10 {
		t.Fatalf("only %d samples", len(vec))
	}
	lo, hi := vec[0], vec[0]
	for _, v := range vec {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		t.Fatal("gobmk vector intensity does not vary")
	}
	if !strings.Contains(fig.Render(), "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFigure2LargeBPUWins(t *testing.T) {
	r := runner(t)
	fig, err := Figure2(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	large := meanOf(fig.Series[0].Values)
	small := meanOf(fig.Series[1].Values)
	if large <= small {
		t.Fatalf("large BPU IPC %.3f not above small %.3f", large, small)
	}
}

func TestFigure3FullMLCWins(t *testing.T) {
	r := runner(t)
	fig, err := Figure3(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(vals []float64) float64 {
		s := 0.0
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	full := meanOf(fig.Series[0].Values)
	one := meanOf(fig.Series[1].Values)
	if full <= one {
		t.Fatalf("full MLC IPC %.3f not above 1-way %.3f", full, one)
	}
}

func TestTableIRender(t *testing.T) {
	out := TableI().Render()
	for _, want := range []string{"1024KB", "2048KB", "4-wide", "2-wide", "local only"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFigure8Quality(t *testing.T) {
	r := runner(t)
	fig, err := Figure8(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 29 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Shape claim: same-signature windows execute highly similar code.
	if fig.MeanFrac > 0.10 {
		t.Fatalf("mean signature distance %.3f too high", fig.MeanFrac)
	}
	if !strings.Contains(fig.Render(), "Figure 8") {
		t.Fatal("render missing title")
	}
}

func TestFigure9MobileShape(t *testing.T) {
	r := runner(t)
	fig, err := Figure9(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 8 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.VPUGated < 0.6 {
			t.Errorf("%s: mobile VPU gated only %.2f (paper ~90%%)", row.Benchmark, row.VPUGated)
		}
	}
}

func TestFigure10ServerShape(t *testing.T) {
	r := runner(t)
	fig, err := Figure10(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 21 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	byName := map[string]ActivityRow{}
	for _, row := range fig.Rows {
		byName[row.Benchmark] = row
	}
	// Paper-named shapes: namd and dedup gate the VPU heavily; soplex and
	// sphinx keep it mostly on; lbm and hmmer gate the BPU.
	if byName["namd"].VPUGated < 0.7 || byName["dedup"].VPUGated < 0.7 {
		t.Errorf("namd/dedup VPU gating too low: %.2f / %.2f",
			byName["namd"].VPUGated, byName["dedup"].VPUGated)
	}
	if byName["soplex"].VPUGated > 0.4 || byName["sphinx3"].VPUGated > 0.4 {
		t.Errorf("soplex/sphinx3 VPU gated too much: %.2f / %.2f",
			byName["soplex"].VPUGated, byName["sphinx3"].VPUGated)
	}
	if byName["lbm"].BPUGated < 0.5 || byName["hmmer"].BPUGated < 0.5 {
		t.Errorf("lbm/hmmer BPU gating too low: %.2f / %.2f",
			byName["lbm"].BPUGated, byName["hmmer"].BPUGated)
	}
	// MLC one-way heavy hitters.
	for _, name := range []string{"milc", "libquantum", "streamcluster"} {
		if byName[name].MLCOneWay < 0.4 {
			t.Errorf("%s MLC one-way %.2f, paper reports >40%%", name, byName[name].MLCOneWay)
		}
	}
}

func TestFigure11LowSwitchRates(t *testing.T) {
	r := runner(t)
	fig, err := Figure11(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Paper bounds: <10 VPU, <50 BPU, <5 MLC per million cycles on
	// average. Short test runs inflate rates slightly; allow 2x.
	if fig.AvgVPU > 20 || fig.AvgBPU > 100 || fig.AvgMLC > 10 {
		t.Fatalf("switch rates too high: VPU %.1f BPU %.1f MLC %.1f",
			fig.AvgVPU, fig.AvgBPU, fig.AvgMLC)
	}
}

func TestFigure12PerfShape(t *testing.T) {
	r := runner(t)
	fig, err := Figure12(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Rows) != 29 {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// PowerChop stays near full performance; min-power loses much more.
	if fig.AvgSlowdown > 0.06 {
		t.Fatalf("PowerChop average slowdown %.3f too high", fig.AvgSlowdown)
	}
	if fig.AvgMinLoss < 5*fig.AvgSlowdown {
		t.Fatalf("min-power loss %.3f not clearly above PowerChop %.3f",
			fig.AvgMinLoss, fig.AvgSlowdown)
	}
	for _, row := range fig.Rows {
		if row.MinPower > row.PowerChop+0.01 {
			t.Errorf("%s: min-power outperforms PowerChop (%.3f vs %.3f)",
				row.Benchmark, row.MinPower, row.PowerChop)
		}
	}
}

func TestFigure13And14PowerShape(t *testing.T) {
	r := runner(t)
	fig, err := PowerReductions(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Every suite saves power; mobile saves the most (its MLC dominates
	// core area), as in the paper.
	for _, s := range workload.Suites() {
		if fig.AvgPower[s] <= 0 {
			t.Errorf("suite %s: power reduction %.3f", s, fig.AvgPower[s])
		}
		if fig.AvgLeakage[s] < fig.AvgPower[s]*0.8 {
			t.Errorf("suite %s: leakage reduction %.3f below power reduction %.3f",
				s, fig.AvgLeakage[s], fig.AvgPower[s])
		}
	}
	if fig.AvgPower[workload.MobileBench] <= fig.AvgPower[workload.SPECFP] {
		t.Error("mobile power reduction should exceed SPEC-FP")
	}
	if !strings.Contains(fig.RenderFigure13(), "Figure 13") ||
		!strings.Contains(fig.RenderFigure14(), "Figure 14") {
		t.Error("render titles missing")
	}
}

func TestFigure15ShardShape(t *testing.T) {
	r := runner(t)
	fig, err := Figure15(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ShardRow{}
	for _, row := range fig.Rows {
		byName[row.Benchmark] = row
	}
	// namd's defining property: most shards carry a small nonzero number
	// of vector ops.
	if byName["namd"].OneToFour < 0.3 {
		t.Errorf("namd 0<V<=4 shards = %.2f, want many", byName["namd"].OneToFour)
	}
	// milc is vector-dense.
	if byName["milc"].Above < 0.5 {
		t.Errorf("milc V>20 shards = %.2f, want most", byName["milc"].Above)
	}
}

func TestFigure16PowerChopBeatsTimeout(t *testing.T) {
	r := runner(t)
	fig, err := Figure16(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Wins < len(fig.Rows)-2 {
		t.Fatalf("PowerChop won only %d/%d apps", fig.Wins, len(fig.Rows))
	}
	dramatic := map[string]bool{}
	for _, n := range fig.DramaticWins {
		dramatic[n] = true
	}
	for _, name := range []string{"namd", "perlbench", "h264ref"} {
		if !dramatic[name] {
			t.Errorf("%s should be a dramatic PowerChop win (paper names it)", name)
		}
	}
}

func TestSoftwareCostsSmall(t *testing.T) {
	r := runner(t)
	costs, err := SoftwareCosts(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	// Shape: PVT misses are rare and CDE time is a tiny fraction. Short
	// runs inflate the transient, so bound loosely.
	if costs.AvgMissPerTranslation > 0.01 {
		t.Fatalf("PVT miss rate %.5f too high", costs.AvgMissPerTranslation)
	}
	if costs.AvgOverheadFrac > 0.05 {
		t.Fatalf("CDE overhead %.4f too high", costs.AvgOverheadFrac)
	}
}

func TestHardwareCostsRender(t *testing.T) {
	out := HardwareCosts().Render()
	if !strings.Contains(out, "264") || !strings.Contains(out, "0.027") {
		t.Fatalf("hardware costs = %q", out)
	}
}

func TestPerUnitStudy(t *testing.T) {
	r := runner(t)
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	res, err := PerUnit(context.Background(), r, []workload.Benchmark{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Slowdown > 0.10 {
			t.Errorf("%s/%s: per-unit slowdown %.3f", row.Benchmark, row.Unit, row.Slowdown)
		}
	}
	if !strings.Contains(res.Render(), "gobmk") {
		t.Fatal("render missing benchmark")
	}
}

func TestRunnerTracer(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	// A dedicated small runner: the shared one may already have cached
	// results, which would bypass the tracer.
	r := NewParallelRunner(0.05, 0)
	ring := obs.NewRing(1 << 14)
	r.Tracer = ring
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := result(r, b, powerChop); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("runner tracer saw no events")
	}
	windows := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KindWindowClose {
			windows++
		}
	}
	if windows == 0 {
		t.Error("no window-close events through runner tracer")
	}
}
