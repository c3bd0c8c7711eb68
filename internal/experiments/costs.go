package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/arch"
	"powerchop/internal/power"
	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// TableIResult renders the architectural design points (Table I).
type TableIResult struct {
	Server arch.Design
	Mobile arch.Design
}

// TableI returns the two evaluated design points.
func TableI() *TableIResult {
	return &TableIResult{Server: arch.Server(), Mobile: arch.Mobile()}
}

// Render draws the Table I summary.
func (t *TableIResult) Render() string {
	kb := func(bytes int) string { return fmt.Sprintf("%dKB", bytes>>10) }
	row := func(name string, f func(arch.Design) string) []string {
		return []string{name, f(t.Server), f(t.Mobile)}
	}
	rows := [][]string{
		row("applications", func(d arch.Design) string {
			if d.Name == "server" {
				return "SPEC CPU2006, PARSEC"
			}
			return "MobileBench"
		}),
		row("clock", func(d arch.Design) string { return fmt.Sprintf("%.1f GHz", d.ClockHz/1e9) }),
		row("MLC baseline", func(d arch.Design) string {
			return fmt.Sprintf("%s, %d-way", kb(d.Mem.MLC.SizeBytes), d.Mem.MLC.Ways)
		}),
		row("MLC area", func(d arch.Design) string { return fmt.Sprintf("%.0f%% of core", d.PowerMLC.AreaFrac*100) }),
		row("MLC gated states", func(d arch.Design) string {
			half := d.Mem.MLC.SizeBytes / 2
			one := d.Mem.MLC.SizeBytes / d.Mem.MLC.Ways
			return fmt.Sprintf("%s %d-way or %s 1-way", kb(half), d.Mem.MLC.Ways/2, kb(one))
		}),
		row("MLC overheads", func(d arch.Design) string {
			return fmt.Sprintf("%.0f cyc/switch + WB + rewarm", d.GateStallMLC)
		}),
		row("VPU baseline", func(d arch.Design) string { return fmt.Sprintf("%d-wide SIMD", d.VPU.Width) }),
		row("VPU area", func(d arch.Design) string { return fmt.Sprintf("%.0f%% of core", d.PowerVPU.AreaFrac*100) }),
		row("VPU gated state", func(arch.Design) string { return "unit off, ops emulated by BT" }),
		row("VPU overheads", func(d arch.Design) string {
			return fmt.Sprintf("%.0f cyc/switch + %.0f cyc save/restore", d.GateStallVPU, d.VPU.SaveRestoreCycles)
		}),
		row("BPU baseline", func(d arch.Design) string {
			return fmt.Sprintf("loc/glob tourney, %dK-ent BTB, %dK-ent chooser",
				d.BPU.Large.BTBEntries>>10, d.BPU.Large.ChooserSize>>10)
		}),
		row("BPU area", func(d arch.Design) string { return fmt.Sprintf("%.0f%% of core", d.PowerBPU.AreaFrac*100) }),
		row("BPU gated state", func(d arch.Design) string {
			return fmt.Sprintf("local only, %d-entry BTB", d.BPU.SmallBTB)
		}),
		row("BPU overheads", func(d arch.Design) string {
			return fmt.Sprintf("%.0f cyc/switch + rewarm", d.GateStallBPU)
		}),
	}
	return "Table I: architectural design points\n" +
		textplot.Table([]string{"", "Server (Nehalem-class)", "Mobile (Cortex-A9-class)"}, rows)
}

// HardwareCostsResult reports the HTB/PVT hardware budget (Section IV-B4).
type HardwareCostsResult struct {
	PVTBytes   int
	HTBBytes   int
	HTBPowerW  float64
	HTBAreaMM2 float64
}

// HardwareCosts returns the added-hardware budget.
func HardwareCosts() *HardwareCostsResult {
	return &HardwareCostsResult{
		PVTBytes:   power.PVTBytes,
		HTBBytes:   power.HTBBytes,
		HTBPowerW:  power.HTBPowerW,
		HTBAreaMM2: power.HTBAreaMM2,
	}
}

// Render draws the hardware cost summary.
func (h *HardwareCostsResult) Render() string {
	return fmt.Sprintf(`Hardware costs (Section IV-B4)
  PVT: 16 entries, %d bytes (4x32-bit PCs + 4 policy bits per entry)
  HTB: 128 entries, %d bytes (32-bit ID + 32-bit counter per entry)
  HTB power %.3f W, area %.3f mm^2 (cacti, 32nm) - small vs. core budgets
`, h.PVTBytes, h.HTBBytes, h.HTBPowerW, h.HTBAreaMM2)
}

// SoftwareCostsResult reports the CDE/PVT-miss overhead (Section IV-C3).
type SoftwareCostsResult struct {
	Rows []SoftwareCostRow
	// AvgMissPerTranslation is the PVT misses per executed translation
	// (paper: 0.017% across SPEC).
	AvgMissPerTranslation float64
	// AvgOverheadFrac is the CDE handling time as a fraction of run
	// cycles (paper: <0.5%).
	AvgOverheadFrac float64
}

// SoftwareCostRow is one benchmark's software-cost entry.
type SoftwareCostRow struct {
	Benchmark            string
	MissesPerTranslation float64
	OverheadFrac         float64
}

// SoftwareCosts measures the PVT-miss interrupt rate and CDE time across
// the SPEC suites, as the paper reports.
func SoftwareCosts(ctx context.Context, r *Runner) (*SoftwareCostsResult, error) {
	bs := append(workload.BySuite(workload.SPECInt), workload.BySuite(workload.SPECFP)...)
	set, err := r.ResultSet(ctx, bs, []Lane{powerChop})
	if err != nil {
		return nil, err
	}
	out := &SoftwareCostsResult{}
	var misses, overheads []float64
	for i, b := range bs {
		res := set[i][0]
		translations := float64(res.BT.TranslatedExecs)
		if translations == 0 {
			translations = 1
		}
		row := SoftwareCostRow{
			Benchmark:            b.Name,
			MissesPerTranslation: float64(res.PVTMissInts) / translations,
			OverheadFrac:         res.CDECycles / res.Cycles,
		}
		out.Rows = append(out.Rows, row)
		misses = append(misses, row.MissesPerTranslation)
		overheads = append(overheads, row.OverheadFrac)
	}
	out.AvgMissPerTranslation = stats.Mean(misses)
	out.AvgOverheadFrac = stats.Mean(overheads)
	return out, nil
}

// Render draws the software cost table.
func (s *SoftwareCostsResult) Render() string {
	header := []string{"benchmark", "PVT misses/translation", "CDE cycles/run"}
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{
			r.Benchmark,
			fmt.Sprintf("%.5f%%", r.MissesPerTranslation*100),
			fmt.Sprintf("%.3f%%", r.OverheadFrac*100),
		}
	}
	var b strings.Builder
	b.WriteString("Software costs (Section IV-C3)\n")
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "  averages: %.5f%% of translations miss the PVT (paper: 0.017%%); CDE costs %.3f%% of cycles (paper: <0.5%%)\n",
		s.AvgMissPerTranslation*100, s.AvgOverheadFrac*100)
	return b.String()
}
