package power

import (
	"math"
	"testing"
)

func almost(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d < 1e-12 || d < 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func spec() UnitSpec {
	return UnitSpec{Name: "VPU", LeakageW: 1.0, DynPerAccessJ: 1e-9, PeakDynW: 2.0, AreaFrac: 0.2}
}

func TestUnitSpecValidate(t *testing.T) {
	if err := spec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []UnitSpec{
		{},
		{Name: "x", LeakageW: -1},
		{Name: "x", DynPerAccessJ: -1},
		{Name: "x", PeakDynW: -1},
		{Name: "x", AreaFrac: 2},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSwitchEnergy(t *testing.T) {
	s := spec()
	clock := 1e9
	// E = 2 * 0.20 * (2.0/1e9 * 0.5) = 4e-10 J
	want := 2 * SleepTransistorRatio * (s.PeakDynW / clock * SwitchingFactor)
	if got := s.SwitchEnergyJ(clock); !almost(got, want) {
		t.Fatalf("SwitchEnergyJ = %v, want %v", got, want)
	}
	if got := s.SwitchEnergyJ(0); got != 0 {
		t.Fatalf("SwitchEnergyJ at 0 Hz = %v", got)
	}
}

func TestResidencyLeakage(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(spec())
	// 1e9 cycles (1 second) fully on: 1 J of leakage.
	a.AddResidency("VPU", 1, 1e9)
	// 1e9 cycles fully gated: 5% of 1 J.
	a.AddResidency("VPU", 0, 1e9)
	r := a.Report(2e9)
	u := r.Unit("VPU")
	if !almost(u.LeakageJ, 1.05) {
		t.Fatalf("LeakageJ = %v, want 1.05", u.LeakageJ)
	}
	if !almost(u.FullLeakageJ, 2.0) {
		t.Fatalf("FullLeakageJ = %v, want 2", u.FullLeakageJ)
	}
	if !almost(u.LeakSavedJ, 0.95) {
		t.Fatalf("LeakSavedJ = %v, want 0.95", u.LeakSavedJ)
	}
	if !almost(u.ResidencyCyc, 2e9) {
		t.Fatalf("ResidencyCyc = %v", u.ResidencyCyc)
	}
}

func TestFractionalResidency(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(UnitSpec{Name: "MLC", LeakageW: 2.0})
	// Half the ways powered for 1 second: 2 * (0.5 + 0.5*0.05) = 1.05 J.
	a.AddResidency("MLC", 0.5, 1e9)
	u := a.Report(1e9).Unit("MLC")
	if !almost(u.LeakageJ, 1.05) {
		t.Fatalf("half-ways LeakageJ = %v, want 1.05", u.LeakageJ)
	}
}

func TestResidencyClampsPowerFrac(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(spec())
	a.AddResidency("VPU", 2.0, 1e9)  // clamped to 1
	a.AddResidency("VPU", -1.0, 1e9) // clamped to 0
	u := a.Report(2e9).Unit("VPU")
	if !almost(u.LeakageJ, 1.05) {
		t.Fatalf("clamped LeakageJ = %v, want 1.05", u.LeakageJ)
	}
}

func TestAccessesEnergy(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(spec())
	a.AddAccesses("VPU", 1000, 1)
	a.AddAccesses("VPU", 1000, 0.5) // way-gated accesses cost less
	u := a.Report(1e9).Unit("VPU")
	if !almost(u.DynamicJ, 1000*1e-9+1000*1e-9*0.5) {
		t.Fatalf("DynamicJ = %v", u.DynamicJ)
	}
	if u.Accesses != 2000 {
		t.Fatalf("Accesses = %d", u.Accesses)
	}
}

func TestSwitchAccounting(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(spec())
	a.AddSwitch("VPU")
	a.AddSwitch("VPU")
	u := a.Report(1e9).Unit("VPU")
	if u.Transitions != 2 {
		t.Fatalf("Transitions = %d", u.Transitions)
	}
	want := 2 * spec().SwitchEnergyJ(1e9)
	if !almost(u.SwitchJ, want) {
		t.Fatalf("SwitchJ = %v, want %v", u.SwitchJ, want)
	}
}

func TestReportTotals(t *testing.T) {
	a := NewAccountant(1e9)
	a.AddUnit(UnitSpec{Name: "A", LeakageW: 1, DynPerAccessJ: 1e-9})
	a.AddUnit(UnitSpec{Name: "B", LeakageW: 3})
	a.AddResidency("A", 1, 1e9)
	a.AddResidency("B", 1, 1e9)
	a.AddAccesses("A", 1e6, 1)
	r := a.Report(1e9)
	if !almost(r.TotalEnergyJ(), 1+3+1e-3) {
		t.Fatalf("TotalEnergyJ = %v", r.TotalEnergyJ())
	}
	if !almost(r.LeakageEnergyJ(), 4) {
		t.Fatalf("LeakageEnergyJ = %v", r.LeakageEnergyJ())
	}
	if !almost(r.DynamicEnergyJ(), 1e-3) {
		t.Fatalf("DynamicEnergyJ = %v", r.DynamicEnergyJ())
	}
	if !almost(r.AvgPowerW(), 4.001) {
		t.Fatalf("AvgPowerW = %v", r.AvgPowerW())
	}
	if !almost(r.AvgLeakageW(), 4) {
		t.Fatalf("AvgLeakageW = %v", r.AvgLeakageW())
	}
}

func TestReportZeroDuration(t *testing.T) {
	a := NewAccountant(1e9)
	r := a.Report(0)
	if r.AvgPowerW() != 0 || r.AvgLeakageW() != 0 {
		t.Fatal("zero-duration power should be 0")
	}
}

func TestUnknownUnitLookup(t *testing.T) {
	a := NewAccountant(1e9)
	r := a.Report(1)
	if got := r.Unit("nope"); got.Name != "" {
		t.Fatalf("missing unit returned %+v", got)
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"bad-clock", func() { NewAccountant(0) }},
		{"dup-unit", func() {
			a := NewAccountant(1e9)
			a.AddUnit(spec())
			a.AddUnit(spec())
		}},
		{"bad-spec", func() {
			a := NewAccountant(1e9)
			a.AddUnit(UnitSpec{})
		}},
		{"unknown-unit", func() {
			a := NewAccountant(1e9)
			a.AddResidency("ghost", 1, 1)
		}},
		{"negative-residency", func() {
			a := NewAccountant(1e9)
			a.AddUnit(spec())
			a.AddResidency("VPU", 1, -1)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestGatingSavesLeakageEndToEnd(t *testing.T) {
	// A unit gated for 90% of a run should save close to 90%*95% of its
	// leakage, the arithmetic behind the paper's Figure 14.
	a := NewAccountant(2e9)
	a.AddUnit(UnitSpec{Name: "VPU", LeakageW: 1.2})
	total := 1e9
	a.AddResidency("VPU", 1, total*0.1)
	a.AddResidency("VPU", 0, total*0.9)
	u := a.Report(total).Unit("VPU")
	savedFrac := u.LeakSavedJ / u.FullLeakageJ
	if !almost(savedFrac, 0.9*0.95) {
		t.Fatalf("leak saved fraction = %v, want 0.855", savedFrac)
	}
}

func TestHardwareCostConstants(t *testing.T) {
	// The paper's reported HTB/PVT costs must stay wired to these values.
	if HTBPowerW != 0.027 || HTBAreaMM2 != 0.008 {
		t.Fatal("HTB cost constants drifted from the paper")
	}
	if HTBBytes != 1024 || PVTBytes != 264 {
		t.Fatal("HTB/PVT sizes drifted from the paper")
	}
}
