package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// ZooPolicies are the registered policies the zoo comparison ranks,
// each at its default parameters, against the full-power baseline.
// full-power and min-power are omitted: the former is the baseline
// itself, the latter saturates both axes and drowns the chart.
var ZooPolicies = []string{"powerchop", "energy-min", "timeout", "darkgates", "agilewatts"}

// ZooCell is one (benchmark, policy) point of the comparison.
type ZooCell struct {
	Policy string
	// EnergySaved is the total-energy reduction vs full power.
	EnergySaved float64
	// Slowdown is the cycle-count increase vs full power.
	Slowdown float64
}

// ZooRow is one benchmark's row across every zoo policy.
type ZooRow struct {
	Benchmark string
	Suite     string
	Cells     []ZooCell // in ZooPolicies order
}

// ZooResult is the policy-comparison figure: energy saved and slowdown
// per policy per benchmark, with per-policy averages.
type ZooResult struct {
	Policies []string
	Rows     []ZooRow
	// AvgEnergySaved and AvgSlowdown average each policy's columns
	// across benchmarks, in Policies order.
	AvgEnergySaved []float64
	AvgSlowdown    []float64
}

// Render draws the two grouped charts plus the per-policy summary.
func (z *ZooResult) Render() string {
	energy := make([]textplot.GroupedRow, len(z.Rows))
	slow := make([]textplot.GroupedRow, len(z.Rows))
	for i, r := range z.Rows {
		er := textplot.GroupedRow{Label: r.Benchmark}
		sr := textplot.GroupedRow{Label: r.Benchmark}
		for _, c := range r.Cells {
			er.Values = append(er.Values, c.EnergySaved*100)
			sr.Values = append(sr.Values, c.Slowdown*100)
		}
		energy[i], slow[i] = er, sr
	}
	var b strings.Builder
	b.WriteString(textplot.GroupedChart(
		"Policy zoo: total energy saved vs full power (%)",
		z.Policies, energy, 40, "%.1f%%"))
	b.WriteString(textplot.GroupedChart(
		"Policy zoo: slowdown vs full power (%)",
		z.Policies, slow, 40, "%.1f%%"))
	b.WriteString("  policy averages (energy saved / slowdown):")
	for i, p := range z.Policies {
		fmt.Fprintf(&b, " %s %.1f%%/%.1f%%", p, z.AvgEnergySaved[i]*100, z.AvgSlowdown[i]*100)
	}
	b.WriteString("\n")
	return b.String()
}

// PolicyZoo runs every zoo policy at default parameters across every
// benchmark and compares each against the shared full-power baseline.
// Every benchmark's baseline and policy lanes go through one ResultSet
// call, so a cold render drives each benchmark's six configurations from
// a single instruction walk. Its lanes are keyed by policy fingerprint,
// so they share flights and cache entries with every other figure, run,
// compare and tune lane of the same policy and run length.
func PolicyZoo(ctx context.Context, r *Runner) (*ZooResult, error) {
	lanes := []Lane{fullPower}
	for _, name := range ZooPolicies {
		lanes = append(lanes, registered(name, nil))
	}
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, lanes)
	if err != nil {
		return nil, err
	}
	out := &ZooResult{Policies: ZooPolicies}
	perPolicyEnergy := make([][]float64, len(ZooPolicies))
	perPolicySlow := make([][]float64, len(ZooPolicies))
	for j, b := range bs {
		results := set[j]
		full := results[0]
		row := ZooRow{Benchmark: b.Name, Suite: b.Suite}
		for i, name := range ZooPolicies {
			res := results[i+1]
			cell := ZooCell{
				Policy:      name,
				EnergySaved: 1 - res.Power.TotalEnergyJ()/full.Power.TotalEnergyJ(),
				Slowdown:    res.Cycles/full.Cycles - 1,
			}
			row.Cells = append(row.Cells, cell)
			perPolicyEnergy[i] = append(perPolicyEnergy[i], cell.EnergySaved)
			perPolicySlow[i] = append(perPolicySlow[i], cell.Slowdown)
		}
		out.Rows = append(out.Rows, row)
	}
	for i := range ZooPolicies {
		out.AvgEnergySaved = append(out.AvgEnergySaved, stats.Mean(perPolicyEnergy[i]))
		out.AvgSlowdown = append(out.AvgSlowdown, stats.Mean(perPolicySlow[i]))
	}
	return out, nil
}
