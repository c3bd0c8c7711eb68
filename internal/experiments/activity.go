package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/phase"
	"powerchop/internal/sim"
	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// QualityRow is one benchmark's Figure 8 entry.
type QualityRow struct {
	Benchmark string
	MeanFrac  float64 // mean same-signature translation distance / window
	MaxFrac   float64
	Phases    int
}

// QualityResult is Figure 8: phase-signature quality across all apps.
type QualityResult struct {
	Rows     []QualityRow
	MeanFrac float64
	// WorstAppFrac is the largest per-app mean distance (the paper's
	// "never exceeds 6.8%" number).
	WorstAppFrac float64
}

// Render draws the per-app distances.
func (q *QualityResult) Render() string {
	rows := make([]textplot.Row, len(q.Rows))
	for i, r := range q.Rows {
		rows[i] = textplot.Row{Label: r.Benchmark, Value: r.MeanFrac * 100}
	}
	var b strings.Builder
	b.WriteString(textplot.BarChart(
		"Figure 8: mean translation distance between same-signature windows (% of window)",
		rows, 40, "%.2f%%"))
	fmt.Fprintf(&b, "  average %.1f%% of translations differ (paper: 2.8%%); worst app %.1f%% (paper: 6.8%%)\n",
		q.MeanFrac*100, q.WorstAppFrac*100)
	return b.String()
}

// Figure8 measures phase-identification quality over every benchmark's
// PowerChop run (Section V-B). Tracking quality is part of a lane's
// key, so the tracked runs are silent extras beside the canonical
// PowerChop runs, as sampled runs are. Each is submitted beside its
// canonical run, which Figures 9-14 read, so that a cold render walks
// each benchmark once for both.
func Figure8(ctx context.Context, r *Runner) (*QualityResult, error) {
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{powerChop, tracked(phase.Config{})})
	if err != nil {
		return nil, err
	}
	out := &QualityResult{}
	var means []float64
	for i, b := range bs {
		res := set[i][1]
		out.Rows = append(out.Rows, QualityRow{
			Benchmark: b.Name,
			MeanFrac:  res.QualityMeanFrac,
			MaxFrac:   res.QualityMaxFrac,
			Phases:    res.QualityPhases,
		})
		means = append(means, res.QualityMeanFrac)
		if res.QualityMeanFrac > out.WorstAppFrac {
			out.WorstAppFrac = res.QualityMeanFrac
		}
	}
	out.MeanFrac = stats.Mean(means)
	return out, nil
}

// ActivityRow is one benchmark's unit-gating summary.
type ActivityRow struct {
	Benchmark string
	VPUGated  float64 // fraction of cycles the VPU is gated off
	BPUGated  float64
	MLCGated  float64 // any way-gating
	MLCOneWay float64 // one-way residency
	MLCHalf   float64
}

// ActivityResult is Figures 9/10: unit activity under PowerChop.
type ActivityResult struct {
	Title string
	Rows  []ActivityRow
}

// Render draws grouped bars per unit.
func (a *ActivityResult) Render() string {
	rows := make([]textplot.GroupedRow, len(a.Rows))
	for i, r := range a.Rows {
		rows[i] = textplot.GroupedRow{
			Label:  r.Benchmark,
			Values: []float64{r.VPUGated * 100, r.BPUGated * 100, r.MLCGated * 100},
		}
	}
	return textplot.GroupedChart(a.Title+" (% of cycles gated)",
		[]string{"VPU", "BPU", "MLC"}, rows, 40, "%.0f%%")
}

func activity(ctx context.Context, r *Runner, title string, bs []workload.Benchmark) (*ActivityResult, error) {
	set, err := r.ResultSet(ctx, bs, []Lane{powerChop})
	if err != nil {
		return nil, err
	}
	out := &ActivityResult{Title: title}
	for i, b := range bs {
		res := set[i][0]
		out.Rows = append(out.Rows, ActivityRow{
			Benchmark: b.Name,
			VPUGated:  res.VPU.GatedFrac,
			BPUGated:  res.BPU.GatedFrac,
			MLCGated:  res.MLC.GatedFrac,
			MLCOneWay: res.MLC.OneWayFrac,
			MLCHalf:   res.MLC.HalfFrac,
		})
	}
	return out, nil
}

// Figure9 reproduces unit activity on the mobile design (Figure 9).
func Figure9(ctx context.Context, r *Runner) (*ActivityResult, error) {
	return activity(ctx, r, "Figure 9: unit gating activity, mobile processor (PowerChop)", workload.MobileSuite())
}

// Figure10 reproduces unit activity on the server design (Figure 10).
func Figure10(ctx context.Context, r *Runner) (*ActivityResult, error) {
	return activity(ctx, r, "Figure 10: unit gating activity, server processor (PowerChop)", workload.ServerSuite())
}

// SwitchRow is one benchmark's Figure 11 entry.
type SwitchRow struct {
	Benchmark string
	VPU       float64 // gating transitions per million cycles
	BPU       float64
	MLC       float64
}

// SwitchResult is Figure 11: policy-change frequency.
type SwitchResult struct {
	Rows   []SwitchRow
	AvgVPU float64
	AvgBPU float64
	AvgMLC float64
}

// Render draws grouped switch-rate bars.
func (s *SwitchResult) Render() string {
	rows := make([]textplot.GroupedRow, len(s.Rows))
	for i, r := range s.Rows {
		rows[i] = textplot.GroupedRow{Label: r.Benchmark, Values: []float64{r.VPU, r.BPU, r.MLC}}
	}
	var b strings.Builder
	b.WriteString(textplot.GroupedChart(
		"Figure 11: unit power-state changes per million cycles (PowerChop)",
		[]string{"VPU", "BPU", "MLC"}, rows, 40, "%.2f"))
	fmt.Fprintf(&b, "  averages: VPU %.2f, BPU %.2f, MLC %.2f per Mcycle (paper: <10, <50, <5)\n",
		s.AvgVPU, s.AvgBPU, s.AvgMLC)
	return b.String()
}

// Figure11 measures how often PowerChop's policies change unit power
// states (Section V-C).
func Figure11(ctx context.Context, r *Runner) (*SwitchResult, error) {
	bs := workload.All()
	set, err := r.ResultSet(ctx, bs, []Lane{powerChop})
	if err != nil {
		return nil, err
	}
	out := &SwitchResult{}
	var v, p, m []float64
	for i, b := range bs {
		res := set[i][0]
		out.Rows = append(out.Rows, SwitchRow{
			Benchmark: b.Name,
			VPU:       res.VPU.SwitchesPerM,
			BPU:       res.BPU.SwitchesPerM,
			MLC:       res.MLC.SwitchesPerM,
		})
		v = append(v, res.VPU.SwitchesPerM)
		p = append(p, res.BPU.SwitchesPerM)
		m = append(m, res.MLC.SwitchesPerM)
	}
	out.AvgVPU, out.AvgBPU, out.AvgMLC = stats.Mean(v), stats.Mean(p), stats.Mean(m)
	return out, nil
}

// perUnitGated extracts one unit's gated fraction from a result.
func perUnitGated(res *sim.Result, unit string) float64 {
	switch unit {
	case "VPU":
		return res.VPU.GatedFrac
	case "BPU":
		return res.BPU.GatedFrac
	default:
		return res.MLC.GatedFrac
	}
}
