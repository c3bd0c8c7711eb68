package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// PerfRow is one benchmark's Figure 12 entry: performance normalized to
// the full-power configuration.
type PerfRow struct {
	Benchmark string
	Suite     string
	PowerChop float64 // normalized performance (1 = full power)
	MinPower  float64
}

// PerfResult is Figure 12.
type PerfResult struct {
	Rows []PerfRow
	// AvgSlowdown is PowerChop's average performance loss (paper: 2.2%).
	AvgSlowdown float64
	// AvgMinLoss is the minimally-powered core's average loss (paper: 84%).
	AvgMinLoss float64
}

// Render draws normalized performance per app.
func (p *PerfResult) Render() string {
	rows := make([]textplot.GroupedRow, len(p.Rows))
	for i, r := range p.Rows {
		rows[i] = textplot.GroupedRow{
			Label:  r.Benchmark,
			Values: []float64{r.PowerChop, r.MinPower},
		}
	}
	var b strings.Builder
	b.WriteString(textplot.GroupedChart(
		"Figure 12: performance normalized to the full-power core",
		[]string{"chop", "min"}, rows, 40, "%.2f"))
	fmt.Fprintf(&b, "  PowerChop average slowdown %.1f%% (paper: 2.2%%); min-power average loss %.0f%% (paper: 84%%)\n",
		p.AvgSlowdown*100, p.AvgMinLoss*100)
	return b.String()
}

// Figure12 compares full-power, PowerChop-managed and minimally-powered
// configurations (Section V-D).
func Figure12(ctx context.Context, r *Runner) (*PerfResult, error) {
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{fullPower, powerChop, minPower})
	if err != nil {
		return nil, err
	}
	out := &PerfResult{}
	var slows, losses []float64
	for i, b := range bs {
		full, chop, min := set[i][0], set[i][1], set[i][2]
		chopPerf := full.Cycles / chop.Cycles
		minPerf := full.Cycles / min.Cycles
		out.Rows = append(out.Rows, PerfRow{
			Benchmark: b.Name,
			Suite:     b.Suite,
			PowerChop: chopPerf,
			MinPower:  minPerf,
		})
		slows = append(slows, 1-chopPerf)
		losses = append(losses, 1-minPerf)
	}
	out.AvgSlowdown = stats.Mean(slows)
	out.AvgMinLoss = stats.Mean(losses)
	return out, nil
}

// PowerRow is one benchmark's Figure 13/14 entry.
type PowerRow struct {
	Benchmark  string
	Suite      string
	PowerRed   float64 // total core power reduction
	EnergyRed  float64 // total energy reduction
	LeakageRed float64 // leakage power reduction
}

// PowerResult is Figures 13 and 14.
type PowerResult struct {
	Rows []PowerRow
	// Suite and overall averages, keyed by suite name plus "all".
	AvgPower   map[string]float64
	AvgEnergy  map[string]float64
	AvgLeakage map[string]float64
}

// renderReduction draws one metric across apps.
func (p *PowerResult) renderReduction(title string, metric func(PowerRow) float64, avg map[string]float64, paperNote string) string {
	rows := make([]textplot.Row, len(p.Rows))
	for i, r := range p.Rows {
		rows[i] = textplot.Row{Label: r.Benchmark, Value: metric(r) * 100}
	}
	var b strings.Builder
	b.WriteString(textplot.BarChart(title, rows, 40, "%.1f%%"))
	fmt.Fprintf(&b, "  suite averages:")
	for _, s := range workload.Suites() {
		fmt.Fprintf(&b, " %s %.1f%%", s, avg[s]*100)
	}
	fmt.Fprintf(&b, "; all %.1f%%\n  %s\n", avg["all"]*100, paperNote)
	return b.String()
}

// RenderFigure13 draws total power and energy reductions.
func (p *PowerResult) RenderFigure13() string {
	return p.renderReduction(
		"Figure 13: total core power reduction with PowerChop",
		func(r PowerRow) float64 { return r.PowerRed }, p.AvgPower,
		"(paper: 10% SPEC-INT, 6% SPEC-FP, 8% PARSEC, 19% MobileBench; up to 40% for lbm/milc/amazon)") +
		p.renderReduction(
			"Figure 13 (cont.): total energy reduction with PowerChop",
			func(r PowerRow) float64 { return r.EnergyRed }, p.AvgEnergy,
			"(paper: 9% average, up to 37%)")
}

// RenderFigure14 draws leakage power reductions.
func (p *PowerResult) RenderFigure14() string {
	return p.renderReduction(
		"Figure 14: core leakage power reduction with PowerChop",
		func(r PowerRow) float64 { return r.LeakageRed }, p.AvgLeakage,
		"(paper: 23% SPEC-INT, 10% SPEC-FP, 12% PARSEC, 32% MobileBench; up to 52%)")
}

// PowerReductions runs the Figure 13/14 comparison (PowerChop vs
// full-power) across every benchmark.
func PowerReductions(ctx context.Context, r *Runner) (*PowerResult, error) {
	out := &PowerResult{
		AvgPower:   map[string]float64{},
		AvgEnergy:  map[string]float64{},
		AvgLeakage: map[string]float64{},
	}
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{fullPower, powerChop})
	if err != nil {
		return nil, err
	}
	perSuite := map[string][]PowerRow{}
	for i, b := range bs {
		full, chop := set[i][0], set[i][1]
		row := PowerRow{
			Benchmark:  b.Name,
			Suite:      b.Suite,
			PowerRed:   1 - chop.Power.AvgPowerW()/full.Power.AvgPowerW(),
			EnergyRed:  1 - chop.Power.TotalEnergyJ()/full.Power.TotalEnergyJ(),
			LeakageRed: 1 - chop.Power.AvgLeakageW()/full.Power.AvgLeakageW(),
		}
		out.Rows = append(out.Rows, row)
		perSuite[b.Suite] = append(perSuite[b.Suite], row)
	}
	mean := func(rows []PowerRow, f func(PowerRow) float64) float64 {
		var xs []float64
		for _, r := range rows {
			xs = append(xs, f(r))
		}
		return stats.Mean(xs)
	}
	for suite, rows := range perSuite {
		out.AvgPower[suite] = mean(rows, func(r PowerRow) float64 { return r.PowerRed })
		out.AvgEnergy[suite] = mean(rows, func(r PowerRow) float64 { return r.EnergyRed })
		out.AvgLeakage[suite] = mean(rows, func(r PowerRow) float64 { return r.LeakageRed })
	}
	out.AvgPower["all"] = mean(out.Rows, func(r PowerRow) float64 { return r.PowerRed })
	out.AvgEnergy["all"] = mean(out.Rows, func(r PowerRow) float64 { return r.EnergyRed })
	out.AvgLeakage["all"] = mean(out.Rows, func(r PowerRow) float64 { return r.LeakageRed })
	return out, nil
}
