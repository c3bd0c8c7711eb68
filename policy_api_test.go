package powerchop

import (
	"encoding/json"
	"strings"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

func TestPoliciesListing(t *testing.T) {
	infos := Policies()
	if len(infos) != 7 {
		t.Fatalf("policies = %d, want 7", len(infos))
	}
	byName := map[string]PolicyInfo{}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name > infos[i].Name {
			t.Fatal("Policies() not sorted by name")
		}
	}
	for _, p := range infos {
		byName[p.Name] = p
		if p.Description == "" {
			t.Errorf("%s: empty description", p.Name)
		}
	}
	if got := len(byName["powerchop"].Params); got != 4 {
		t.Fatalf("powerchop params = %d, want 4 (vpu,bpu,mlc1,mlc2)", got)
	}
	if got := len(byName["full-power"].Params); got != 0 {
		t.Fatalf("full-power params = %d, want 0", got)
	}
	if got := len(byName["agilewatts"].Params); got != 5 {
		t.Fatalf("agilewatts params = %d, want 5", got)
	}
	names := PolicyNames()
	if len(names) != len(infos) {
		t.Fatalf("PolicyNames() = %v", names)
	}
}

func TestPolicyFingerprint(t *testing.T) {
	fp, err := PolicyFingerprint(ManagerPowerChop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "powerchop{bpu=0.005,mlc1=0.005,mlc2=0.0005,vpu=0.005}"; fp != want {
		t.Fatalf("fingerprint = %q, want %q", fp, want)
	}
	// The empty manager string selects the default policy.
	def, err := PolicyFingerprint("", nil)
	if err != nil || def != fp {
		t.Fatalf("default fingerprint = %q, %v", def, err)
	}
	if _, err := PolicyFingerprint("magic", nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := PolicyFingerprint(ManagerTimeout, map[string]float64{"vpu": 0.5}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := PolicyFingerprint(ManagerPowerChop, map[string]float64{"vpu": 2}); err == nil {
		t.Fatal("out-of-bounds parameter accepted")
	}
}

// TestRunParamErrors pins the error paths Options.Params adds: unknown
// parameter names and out-of-bounds values fail the run before any
// simulation happens.
func TestRunParamErrors(t *testing.T) {
	if _, err := Run("namd", Options{Params: map[string]float64{"nope": 1}}); err == nil ||
		!strings.Contains(err.Error(), `unknown parameter "nope"`) {
		t.Fatalf("unknown param: %v", err)
	}
	if _, err := Run("namd", Options{Params: map[string]float64{"vpu": 1.5}}); err == nil ||
		!strings.Contains(err.Error(), "out of") {
		t.Fatalf("out-of-bounds param: %v", err)
	}
	if _, err := Run("namd", Options{Manager: ManagerTimeout,
		Params: map[string]float64{"idle-cycles": 0}}); err == nil {
		t.Fatal("below-min idle-cycles accepted")
	}
	if _, err := Run("namd", Options{Manager: ManagerDarkGates,
		Params: map[string]float64{"margin": 100}}); err == nil {
		t.Fatal("out-of-bounds margin accepted")
	}
}

// TestRegistryManagersByteIdentical is the refactor's contract: for each
// of the original five managers, a public Run (which now builds its
// manager through the policy registry) must produce a Report
// byte-identical to driving the simulator with a directly-constructed
// core manager, exactly as the pre-registry code did.
func TestRegistryManagersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates five manager configurations")
	}
	bench, err := workload.ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	const passes = 0.3
	direct := func(m core.Manager) *Report {
		t.Helper()
		p := bench.MustBuild()
		res, err := sim.Run(p, sim.Config{
			Design:          arch.Server(),
			Manager:         m,
			MaxTranslations: uint64(passes * float64(p.TotalScheduleTranslations())),
		})
		if err != nil {
			t.Fatal(err)
		}
		return reportOf(res)
	}
	timeout, err := core.NewTimeoutVPU(core.DefaultTimeoutCycles)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		manager string
		build   core.Manager
	}{
		{ManagerFullPower, core.AlwaysOn()},
		{ManagerMinPower, core.MinPower()},
		{ManagerPowerChop, core.MustPowerChop(core.DefaultConfig())},
		{ManagerEnergyMin, core.MustPowerChop(core.EnergyMinimizerConfig())},
		{ManagerTimeout, timeout},
	}
	for _, tc := range cases {
		viaRegistry, err := Run("bzip2", Options{Manager: tc.manager, Passes: passes})
		if err != nil {
			t.Fatalf("%s: %v", tc.manager, err)
		}
		want := direct(tc.build)
		a, err := json.Marshal(viaRegistry)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: registry-built run differs from direct construction", tc.manager)
		}
	}
}

// TestTuneReconcilesWithCompare is the tuner's acceptance contract: a
// grid point at the default parameters shares Run's cache keys, so with
// a warm cache the tuner's (energy saved, slowdown) equal Compare's
// EnergyReduction and Slowdown exactly — no re-simulation, no drift.
func TestTuneReconcilesWithCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark under several managers")
	}
	cache := rescache.New(t.TempDir(), nil)
	opts := Options{Passes: 0.3, Cache: cache}
	c, err := Compare("libquantum", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Stores != 3 {
		t.Fatalf("Compare stored %d entries, want 3", st.Stores)
	}
	// Pin every powerchop parameter to its default: a single grid point.
	res, err := Tune(TuneOptions{
		Policy:     ManagerPowerChop,
		Benchmarks: []string{"libquantum"},
		Grid: map[string][]float64{
			"vpu": {}, "bpu": {}, "mlc1": {}, "mlc2": {},
		},
		Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || len(res.Frontier) != 1 {
		t.Fatalf("points = %d, frontier = %d, want 1 and 1", len(res.Points), len(res.Frontier))
	}
	st := cache.Stats()
	if st.Hits < 2 {
		t.Fatalf("tune re-simulated instead of reusing Compare's entries: %+v", st)
	}
	if st.Stores != 3 {
		t.Fatalf("tune stored new entries: %+v", st)
	}
	pt := res.Points[0]
	if !pt.Pareto {
		t.Fatal("single point not on its own frontier")
	}
	if pt.EnergySaved != c.EnergyReduction() {
		t.Errorf("energy saved %v != Compare's %v", pt.EnergySaved, c.EnergyReduction())
	}
	if pt.Slowdown != c.Slowdown() {
		t.Errorf("slowdown %v != Compare's %v", pt.Slowdown, c.Slowdown())
	}
	wantFP, err := PolicyFingerprint(ManagerPowerChop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Fingerprint != wantFP {
		t.Errorf("point fingerprint %q != default %q", pt.Fingerprint, wantFP)
	}
}
