// Package power implements the simulator's energy and power accounting,
// standing in for the paper's 32 nm McPAT model.
//
// Each managed unit (VPU, BPU, MLC) and the remainder of the core carries a
// UnitSpec: a leakage budget proportional to its Table I area share, a
// per-access dynamic energy, and a peak dynamic power from which the
// power-gating switch-energy overhead is derived using the Hu et al. model
// the paper adopts (Equation 1):
//
//	E_overhead = 2 · W_H · E^S_cyc
//
// with E^S_cyc the unit's average per-cycle switching energy (peak dynamic
// power divided by clock frequency, scaled by the switching factor) and
// W_H the sleep-transistor area ratio. The paper takes W_H = 0.20 (the
// most pessimistic value in the literature's 0.05–0.20 range) and a
// switching factor of 0.5; gated units retain 5% of nominal leakage.
package power

import (
	"fmt"
	"sort"
)

// Paper model constants (Section IV-D).
const (
	// GatedLeakageFrac is the leakage a gated unit still draws.
	GatedLeakageFrac = 0.05
	// SleepTransistorRatio is W_H in Equation 1.
	SleepTransistorRatio = 0.20
	// SwitchingFactor scales peak dynamic power to average per-cycle
	// switching energy.
	SwitchingFactor = 0.5
)

// HTB/PVT hardware costs reported in Section IV-B4 (from cacti).
const (
	HTBPowerW  = 0.027
	HTBAreaMM2 = 0.008
	HTBBytes   = 1024 // 128 entries × (32-bit ID + 32-bit counter)
	PVTBytes   = 264  // 16 entries × (4×32-bit PCs + 4 policy bits)
)

// UnitSpec is the power description of one gateable unit.
type UnitSpec struct {
	// Name identifies the unit ("VPU", "BPU", "MLC", "core").
	Name string
	// LeakageW is the unit's leakage power when fully on.
	LeakageW float64
	// DynPerAccessJ is the dynamic energy of one access.
	DynPerAccessJ float64
	// PeakDynW is the unit's peak dynamic power, used for the switch
	// overhead model.
	PeakDynW float64
	// AreaFrac is the unit's share of core area (Table I), recorded for
	// reporting.
	AreaFrac float64
}

// Validate reports an error for inconsistent specs.
func (s UnitSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("power: unit spec without name")
	}
	if s.LeakageW < 0 || s.DynPerAccessJ < 0 || s.PeakDynW < 0 {
		return fmt.Errorf("power: unit %q has negative budget", s.Name)
	}
	if s.AreaFrac < 0 || s.AreaFrac > 1 {
		return fmt.Errorf("power: unit %q area fraction %v out of [0,1]", s.Name, s.AreaFrac)
	}
	return nil
}

// SwitchEnergyJ returns the energy overhead of one gating transition for
// the unit at the given clock, per Equation 1.
func (s UnitSpec) SwitchEnergyJ(clockHz float64) float64 {
	if clockHz <= 0 {
		return 0
	}
	ecyc := s.PeakDynW / clockHz * SwitchingFactor
	return 2 * SleepTransistorRatio * ecyc
}

// unitAcct accumulates one unit's energies.
type unitAcct struct {
	spec UnitSpec

	fullLeakJ   float64 // leakage the unit would have drawn always-on
	leakJ       float64 // leakage actually drawn given residency
	dynJ        float64 // dynamic energy from accesses
	switchJ     float64 // gating transition overhead energy
	accesses    uint64
	transitions uint64
	cycles      float64 // residency cycles recorded
}

// Accountant accumulates per-unit energy over a simulated run.
type Accountant struct {
	clockHz float64
	units   map[string]*unitAcct
}

// NewAccountant creates an accountant for a core at the given clock.
func NewAccountant(clockHz float64) *Accountant {
	if clockHz <= 0 {
		panic(fmt.Sprintf("power: clock %v Hz", clockHz))
	}
	return &Accountant{clockHz: clockHz, units: map[string]*unitAcct{}}
}

// ClockHz returns the accounting clock.
func (a *Accountant) ClockHz() float64 { return a.clockHz }

// AddUnit registers a unit spec. Registering the same name twice is an
// error surfaced by panic, as it indicates a mis-wired simulator.
func (a *Accountant) AddUnit(spec UnitSpec) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if _, dup := a.units[spec.Name]; dup {
		panic(fmt.Sprintf("power: unit %q registered twice", spec.Name))
	}
	a.units[spec.Name] = &unitAcct{spec: spec}
}

func (a *Accountant) unit(name string) *unitAcct {
	u, ok := a.units[name]
	if !ok {
		panic(fmt.Sprintf("power: unknown unit %q", name))
	}
	return u
}

// AddResidency records that unit spent the given cycles with powerFrac of
// its circuits powered (1 = fully on, 0 = fully gated; the MLC uses
// fractional values for way gating). Gated circuits draw GatedLeakageFrac
// of their leakage.
func (a *Accountant) AddResidency(name string, powerFrac, cycles float64) {
	if cycles < 0 {
		panic(fmt.Sprintf("power: negative residency %v for %q", cycles, name))
	}
	if powerFrac < 0 {
		powerFrac = 0
	}
	if powerFrac > 1 {
		powerFrac = 1
	}
	u := a.unit(name)
	t := cycles / a.clockHz
	effective := powerFrac + (1-powerFrac)*GatedLeakageFrac
	u.leakJ += u.spec.LeakageW * effective * t
	u.fullLeakJ += u.spec.LeakageW * t
	u.cycles += cycles
}

// AddAccesses records n dynamic accesses to the unit at the given power
// fraction. A way-gated MLC burns proportionally less energy per access
// because fewer ways are read.
func (a *Accountant) AddAccesses(name string, n uint64, powerFrac float64) {
	if powerFrac <= 0 || powerFrac > 1 {
		powerFrac = 1
	}
	u := a.unit(name)
	u.accesses += n
	u.dynJ += float64(n) * u.spec.DynPerAccessJ * powerFrac
}

// AddSwitch records one gating transition of the unit, charging the Hu
// et al. overhead energy.
func (a *Accountant) AddSwitch(name string) {
	u := a.unit(name)
	u.transitions++
	u.switchJ += u.spec.SwitchEnergyJ(a.clockHz)
}

// UnitReport summarizes one unit's accumulated energy.
type UnitReport struct {
	Name         string
	LeakageJ     float64 // leakage drawn given gating residency
	FullLeakageJ float64 // leakage an always-on unit would have drawn
	DynamicJ     float64
	SwitchJ      float64
	Accesses     uint64
	Transitions  uint64
	ResidencyCyc float64
	LeakSavedJ   float64 // FullLeakageJ - LeakageJ
}

// TotalJ returns the unit's total energy.
func (r UnitReport) TotalJ() float64 { return r.LeakageJ + r.DynamicJ + r.SwitchJ }

// Report summarizes a run's energy and average power.
type Report struct {
	Seconds float64
	Units   []UnitReport
}

// Report closes out accounting over a run of the given length in cycles.
func (a *Accountant) Report(cycles float64) Report {
	rep := Report{Seconds: cycles / a.clockHz}
	names := make([]string, 0, len(a.units))
	for n := range a.units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		u := a.units[n]
		rep.Units = append(rep.Units, UnitReport{
			Name:         n,
			LeakageJ:     u.leakJ,
			FullLeakageJ: u.fullLeakJ,
			DynamicJ:     u.dynJ,
			SwitchJ:      u.switchJ,
			Accesses:     u.accesses,
			Transitions:  u.transitions,
			ResidencyCyc: u.cycles,
			LeakSavedJ:   u.fullLeakJ - u.leakJ,
		})
	}
	return rep
}

// Unit returns the report entry with the given name, or a zero report.
func (r Report) Unit(name string) UnitReport {
	for _, u := range r.Units {
		if u.Name == name {
			return u
		}
	}
	return UnitReport{}
}

// TotalEnergyJ returns the whole-core energy of the run.
func (r Report) TotalEnergyJ() float64 {
	t := 0.0
	for _, u := range r.Units {
		t += u.TotalJ()
	}
	return t
}

// LeakageEnergyJ returns the whole-core leakage energy of the run.
func (r Report) LeakageEnergyJ() float64 {
	t := 0.0
	for _, u := range r.Units {
		t += u.LeakageJ
	}
	return t
}

// DynamicEnergyJ returns the whole-core dynamic (plus switch-overhead)
// energy of the run.
func (r Report) DynamicEnergyJ() float64 {
	t := 0.0
	for _, u := range r.Units {
		t += u.DynamicJ + u.SwitchJ
	}
	return t
}

// AvgPowerW returns the run's average total power.
func (r Report) AvgPowerW() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return r.TotalEnergyJ() / r.Seconds
}

// AvgLeakageW returns the run's average leakage power.
func (r Report) AvgLeakageW() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return r.LeakageEnergyJ() / r.Seconds
}
