// Package arch defines the two processor design points of the paper's
// evaluation (Table I and Figure 7): a server-class hybrid core modelled
// on Intel Nehalem and a mobile-class hybrid core modelled on ARM
// Cortex-A9, both at the 32 nm node.
//
// A Design bundles everything the simulator needs: pipeline timing
// parameters, the BT runtime's cost model, the managed units' geometries
// (BPU, MLC, VPU), gating overheads (Section IV-D) and the per-unit power
// budgets that stand in for the paper's McPAT model. Leakage budgets
// follow Table I's area shares (server: MLC 35%, VPU 20%, BPU 4% of core;
// mobile: 60%/18%/3%) — leakage tracks area at a fixed process node.
package arch

import (
	"fmt"

	"powerchop/internal/bpu"
	"powerchop/internal/cache"
	"powerchop/internal/power"
	"powerchop/internal/vpu"
)

// Unit names used consistently across gating, power accounting and
// reporting.
const (
	UnitVPU  = "VPU"
	UnitBPU  = "BPU"
	UnitMLC  = "MLC"
	UnitCore = "core" // everything not managed by PowerChop
	UnitHTB  = "HTB"  // PowerChop's added hardware (HTB + PVT)
)

// GatedUnits returns the names of the units PowerChop gates, sorted.
func GatedUnits() []string { return []string{UnitBPU, UnitMLC, UnitVPU} }

// Design is a complete processor design point.
type Design struct {
	// Name labels the design ("server" or "mobile").
	Name string
	// ClockHz is the core clock.
	ClockHz float64
	// IssueWidth is the sustained micro-op issue rate of the translated-
	// code pipeline.
	IssueWidth float64
	// MispredictPenalty is the branch misprediction redirect cost in
	// cycles.
	MispredictPenalty float64

	// InterpCPI is the BT interpreter's cost in cycles per guest
	// instruction before a region is translated.
	InterpCPI float64
	// TranslateCyclesPerInsn is the translator/optimizer's one-time cost
	// per instruction of a region.
	TranslateCyclesPerInsn float64
	// HotThreshold is the interpreted-execution count at which a region
	// is translated.
	HotThreshold int
	// CDEInvokeCycles is the software cost of one CDE invocation (the
	// nucleus interrupt plus Algorithm 1).
	CDEInvokeCycles float64

	// Gate-switch stall cycles (Section IV-D).
	GateStallVPU float64
	GateStallBPU float64
	GateStallMLC float64
	// WritebackCyclesPerLine is the stall per dirty MLC line flushed on a
	// way-gating downsize.
	WritebackCyclesPerLine float64

	// VPU, BPU and memory-system geometries.
	VPU vpu.Config
	BPU bpu.Config
	Mem cache.HierarchyConfig

	// Power budgets for the managed units plus the rest of the core.
	PowerVPU  power.UnitSpec
	PowerBPU  power.UnitSpec
	PowerMLC  power.UnitSpec
	PowerCore power.UnitSpec
}

// Validate checks the design's internal consistency.
func (d Design) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("arch: unnamed design")
	}
	if d.ClockHz <= 0 || d.IssueWidth <= 0 {
		return fmt.Errorf("arch: %s: non-positive clock or issue width", d.Name)
	}
	if d.MispredictPenalty < 0 || d.InterpCPI < 1 || d.TranslateCyclesPerInsn < 0 {
		return fmt.Errorf("arch: %s: inconsistent BT costs", d.Name)
	}
	if d.HotThreshold <= 0 {
		return fmt.Errorf("arch: %s: hot threshold %d", d.Name, d.HotThreshold)
	}
	if d.CDEInvokeCycles < 0 || d.GateStallVPU < 0 || d.GateStallBPU < 0 || d.GateStallMLC < 0 || d.WritebackCyclesPerLine < 0 {
		return fmt.Errorf("arch: %s: negative overhead cost", d.Name)
	}
	if err := d.VPU.Validate(); err != nil {
		return fmt.Errorf("arch: %s: %w", d.Name, err)
	}
	if err := d.BPU.Large.Validate(); err != nil {
		return fmt.Errorf("arch: %s: %w", d.Name, err)
	}
	if err := d.Mem.Validate(); err != nil {
		return fmt.Errorf("arch: %s: %w", d.Name, err)
	}
	for _, spec := range []power.UnitSpec{d.PowerVPU, d.PowerBPU, d.PowerMLC, d.PowerCore} {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("arch: %s: %w", d.Name, err)
		}
	}
	return nil
}

// UnitSpecs returns the power specs in registration order.
func (d Design) UnitSpecs() []power.UnitSpec {
	return []power.UnitSpec{d.PowerVPU, d.PowerBPU, d.PowerMLC, d.PowerCore}
}

// TotalLeakageW returns the design's full-power leakage budget.
func (d Design) TotalLeakageW() float64 {
	return d.PowerVPU.LeakageW + d.PowerBPU.LeakageW + d.PowerMLC.LeakageW + d.PowerCore.LeakageW
}

// Server returns the server design point: a Nehalem-class hybrid core.
// Table I: 1024KB 8-way MLC (35% of core area), 4-wide SIMD VPU (20%),
// loc/glob tournament BPU with 4K-entry BTB and 16K-entry chooser (4%).
func Server() Design {
	return Design{
		Name:              "server",
		ClockHz:           3.0e9,
		IssueWidth:        4,
		MispredictPenalty: 14,

		InterpCPI:              15,
		TranslateCyclesPerInsn: 200,
		HotThreshold:           16,
		CDEInvokeCycles:        4000,

		GateStallVPU:           30,
		GateStallBPU:           20,
		GateStallMLC:           50,
		WritebackCyclesPerLine: 4,

		VPU: vpu.Config{Width: 4, SaveRestoreCycles: 500},
		BPU: bpu.ServerConfig(),
		Mem: cache.HierarchyConfig{
			L1:  cache.Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
			MLC: cache.Config{SizeBytes: 1024 << 10, Ways: 8, LineBytes: 64},
			// Effective (overlapped) stalls: the out-of-order core
			// sustains ~4 outstanding misses, so the per-miss stall is
			// DRAM latency (~190 cycles) divided by the achieved MLP.
			MLCLatency: 12,
			MemLatency: 48,
		},

		// 6 W core leakage split by Table I area shares; dynamic
		// per-access energies sized so leakage is ~35-40% of total power
		// under load, as at 32 nm.
		PowerVPU:  power.UnitSpec{Name: UnitVPU, LeakageW: 1.20, DynPerAccessJ: 2.5e-9, PeakDynW: 3.0, AreaFrac: 0.20},
		PowerBPU:  power.UnitSpec{Name: UnitBPU, LeakageW: 0.24, DynPerAccessJ: 0.8e-9, PeakDynW: 1.0, AreaFrac: 0.04},
		PowerMLC:  power.UnitSpec{Name: UnitMLC, LeakageW: 2.10, DynPerAccessJ: 3.0e-9, PeakDynW: 2.0, AreaFrac: 0.35},
		PowerCore: power.UnitSpec{Name: UnitCore, LeakageW: 2.46, DynPerAccessJ: 2.5e-9, PeakDynW: 8.0, AreaFrac: 0.41},
	}
}

// Mobile returns the mobile design point: a Cortex-A9-class hybrid core.
// Table I: 2048KB 8-way MLC (60% of core area), 2-wide SIMD VPU (18%),
// loc/glob tournament BPU with 2K-entry BTB and 8K-entry chooser (3%).
func Mobile() Design {
	return Design{
		Name:              "mobile",
		ClockHz:           1.0e9,
		IssueWidth:        2,
		MispredictPenalty: 8,

		InterpCPI:              12,
		TranslateCyclesPerInsn: 150,
		HotThreshold:           16,
		CDEInvokeCycles:        3000,

		GateStallVPU:           30,
		GateStallBPU:           20,
		GateStallMLC:           50,
		WritebackCyclesPerLine: 6,

		VPU: vpu.Config{Width: 2, SaveRestoreCycles: 500},
		BPU: bpu.MobileConfig(),
		Mem: cache.HierarchyConfig{
			L1:  cache.Config{SizeBytes: 32 << 10, Ways: 4, LineBytes: 64},
			MLC: cache.Config{SizeBytes: 2048 << 10, Ways: 8, LineBytes: 64},
			// Effective stalls with ~3 outstanding misses on the
			// narrower mobile core.
			MLCLatency: 10,
			MemLatency: 36,
		},

		// 0.30 W core leakage split by Table I area shares; dynamic
		// per-access energies sized so leakage is ~40% of total power
		// under load.
		PowerVPU:  power.UnitSpec{Name: UnitVPU, LeakageW: 0.054, DynPerAccessJ: 0.45e-9, PeakDynW: 0.12, AreaFrac: 0.18},
		PowerBPU:  power.UnitSpec{Name: UnitBPU, LeakageW: 0.009, DynPerAccessJ: 0.12e-9, PeakDynW: 0.04, AreaFrac: 0.03},
		PowerMLC:  power.UnitSpec{Name: UnitMLC, LeakageW: 0.180, DynPerAccessJ: 0.60e-9, PeakDynW: 0.10, AreaFrac: 0.60},
		PowerCore: power.UnitSpec{Name: UnitCore, LeakageW: 0.057, DynPerAccessJ: 0.30e-9, PeakDynW: 0.30, AreaFrac: 0.19},
	}
}

// ByName returns the named design point ("server" or "mobile").
func ByName(name string) (Design, error) {
	switch name {
	case "server":
		return Server(), nil
	case "mobile":
		return Mobile(), nil
	default:
		return Design{}, fmt.Errorf("arch: unknown design %q (want server or mobile)", name)
	}
}
