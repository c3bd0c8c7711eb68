package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/core"
	"powerchop/internal/phase"
	"powerchop/internal/policy"
	"powerchop/internal/pvt"
	"powerchop/internal/sim"
	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// Sweep is one ablation table: a row per setting of one design choice,
// each holding the mean over the sweep's benchmarks of every column.
type Sweep struct {
	Title    string
	Settings []string
	Values   [][]float64 // per setting, in column order

	id, param string
	apps      []string
	columns   []column
	lanes     []Lane // one per setting
}

// AblationResult is the ablations figure: the sweeps behind the paper's
// design points (DESIGN.md §5), one table each.
type AblationResult struct{ Sweeps []*Sweep }

// column is one measure of a sweep lane against the full-power lane of
// the same benchmark and length.
type column struct {
	name    string
	percent bool
	of      func(res, full *sim.Result) float64
}

var (
	slowdownCol = column{"slowdown", true, func(res, full *sim.Result) float64 { return res.Cycles/full.Cycles - 1 }}
	distanceCol = column{"signature distance", true, func(res, _ *sim.Result) float64 { return res.QualityMeanFrac }}
	pvtHitCol   = column{"PVT hit rate", true, func(res, _ *sim.Result) float64 { return res.PVT.HitRate() }}
)

// add appends a setting and the lane that measures it.
func (s *Sweep) add(setting string, l Lane) {
	s.Settings = append(s.Settings, setting)
	s.lanes = append(s.lanes, l)
}

// ablations returns the sweeps of DESIGN.md §5. Each sweep's default
// setting is a lane another figure runs: the default thresholds and the
// energy-min policy are Figure 12's and the policy zoo's policy lanes,
// the 20K-cycle timeout is Figure 16's, N=4 and W=1000 in a 128-entry
// HTB is Figure 8's quality lane, and the 16-entry tree-PLRU PVT is the
// PowerChop lane itself.
func ablations() []*Sweep {
	chopApps := []string{"gobmk", "soplex", "msn"}
	thresholds := &Sweep{id: "thresholds", param: "threshold", apps: chopApps,
		Title: "criticality thresholds, vpu = bpu = mlc1 = t and mlc2 = t/10 (gobmk, soplex, msn)",
		columns: []column{{"gated (VPU/BPU/MLC mean)", true, func(res, _ *sim.Result) float64 {
			return (res.VPU.GatedFrac + res.BPU.GatedFrac + res.MLC.GatedFrac) / 3
		}}, slowdownCol}}
	for _, t := range []float64{0.001, 0.005, 0.02, 0.1} {
		thresholds.add(fmt.Sprintf("t=%g", t), registered("powerchop", policy.Params{"vpu": t, "bpu": t, "mlc1": t, "mlc2": t / 10}))
	}
	energyMin := &Sweep{id: "energy-min", param: "policy", apps: chopApps,
		Title: "default vs energy-minimizing thresholds (gobmk, soplex, msn)",
		columns: []column{{"energy saved", true, func(res, full *sim.Result) float64 {
			return 1 - res.Power.TotalEnergyJ()/full.Power.TotalEnergyJ()
		}}, slowdownCol}}
	energyMin.add("powerchop", powerChop)
	energyMin.add("energy-min", registered("energy-min", nil))
	timeouts := &Sweep{id: "timeout", param: "idle cycles", apps: []string{"h264ref"},
		Title:   "idle-timeout period of the VPU timeout baseline (h264ref)",
		columns: []column{{"VPU gated", true, func(res, _ *sim.Result) float64 { return res.VPU.GatedFrac }}, slowdownCol}}
	for _, c := range []float64{100, 1000, 20000, 100000} {
		timeouts.add(fmt.Sprint(c), registered("timeout", policy.Params{"idle-cycles": c}))
	}
	signature := &Sweep{id: "signature", param: "N, W", apps: []string{"gobmk"},
		Title:   "signature length N and window W in translations (gobmk)",
		columns: []column{distanceCol, {"phases", false, func(res, _ *sim.Result) float64 { return float64(res.QualityPhases) }}}}
	for _, c := range [][2]int{{1, 1000}, {2, 1000}, {4, 1000}, {8, 1000}, {4, 200}, {4, 5000}} {
		signature.add(fmt.Sprintf("N=%d, W=%d", c[0], c[1]), tracked(phase.Config{Capacity: 128, WindowSize: c[1], SignatureLen: c[0]}))
	}
	htb := &Sweep{id: "htb", param: "HTB entries", apps: []string{"gobmk"}, Title: "HTB capacity (gobmk)", columns: []column{distanceCol}}
	for _, c := range []int{16, 128, 512} {
		htb.add(fmt.Sprint(c), tracked(phase.Config{Capacity: c, WindowSize: 1000, SignatureLen: 4}))
	}
	pvtSize := &Sweep{id: "pvt-size", param: "PVT entries", apps: []string{"msn"}, Title: "PVT capacity, tree-PLRU (msn)", columns: []column{pvtHitCol}}
	for _, n := range []int{4, 16, 64} {
		pvtSize.add(fmt.Sprint(n), chopPVT(n, pvt.TreePLRU))
	}
	replacement := &Sweep{id: "pvt-replacement", param: "replacement", apps: []string{"msn"}, Title: "PVT replacement with 4 entries (msn)", columns: []column{pvtHitCol}}
	for _, repl := range []pvt.Replacement{pvt.TreePLRU, pvt.TrueLRU, pvt.Random} {
		replacement.add(repl.String(), chopPVT(4, repl))
	}
	return []*Sweep{thresholds, energyMin, timeouts, signature, htb, pvtSize, replacement}
}

// tracked is the silent, quality-tracked PowerChop lane at a phase
// configuration, as Figure 8 runs it at the paper's.
func tracked(ph phase.Config) Lane {
	l := powerChop
	l.Quality, l.Silent, l.Phase = true, true, ph
	return l
}

// chopPVT is PowerChop with a PVT of the given size and replacement
// policy: the PowerChop lane itself at the paper's 16-entry tree-PLRU
// table, a study-only setup keyed by its setting otherwise.
func chopPVT(entries int, repl pvt.Replacement) Lane {
	if entries == pvt.DefaultEntries && repl == pvt.TreePLRU {
		return powerChop
	}
	return Lane{ManagerKey: fmt.Sprintf("powerchop-pvt%d-%s", entries, repl), Manager: func() (core.Manager, error) {
		cfg := core.DefaultConfig()
		cfg.PVTEntries, cfg.Replacement = entries, repl
		return core.NewPowerChop(cfg)
	}}
}

// Ablations runs every sweep of DESIGN.md §5. Each benchmark's
// full-power lane and sweep lanes go through one ResultSet call, so they
// share flights and cache entries with every other figure, run, compare
// and tune lane of the same setting, and its cold lanes share batched
// walks; lanes that differ only in phase configuration batch like any
// other. Slowdown and energy are against the full-power lane of the
// same length.
func Ablations(ctx context.Context, r *Runner) (*AblationResult, error) {
	sweeps := ablations()
	var names []string
	templates := map[string][]Lane{}
	for _, s := range sweeps {
		for _, app := range s.apps {
			if templates[app] == nil {
				names = append(names, app)
				templates[app] = []Lane{fullPower}
			}
			templates[app] = append(templates[app], s.lanes...)
		}
	}
	full, lanes := map[string]*sim.Result{}, map[string][]*sim.Result{}
	for _, name := range names {
		b, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		set, err := r.ResultSet(ctx, []workload.Benchmark{b}, templates[name])
		if err != nil {
			return nil, err
		}
		full[name], lanes[name] = set[0][0], set[0][1:]
	}
	// The results come back in template order, so each sweep reads the
	// next len(s.lanes) results of each of its benchmarks.
	for _, s := range sweeps {
		s.Values = make([][]float64, len(s.lanes))
		for k := range s.lanes {
			for _, c := range s.columns {
				var xs []float64
				for _, app := range s.apps {
					xs = append(xs, c.of(lanes[app][k], full[app]))
				}
				s.Values[k] = append(s.Values[k], stats.Mean(xs))
			}
		}
		for _, app := range s.apps {
			lanes[app] = lanes[app][len(s.lanes):]
		}
	}
	return &AblationResult{Sweeps: sweeps}, nil
}

// Render draws one table per sweep.
func (a *AblationResult) Render() string {
	var b strings.Builder
	for _, s := range a.Sweeps {
		header := []string{s.param}
		for _, c := range s.columns {
			header = append(header, c.name)
		}
		rows := make([][]string, len(s.Values))
		for i, vs := range s.Values {
			rows[i] = []string{s.Settings[i]}
			for j, v := range vs {
				cell := fmt.Sprintf("%g", v)
				if s.columns[j].percent {
					cell = fmt.Sprintf("%.4g%%", v*100)
				}
				rows[i] = append(rows[i], cell)
			}
		}
		fmt.Fprintf(&b, "Ablation: %s\n%s", s.Title, textplot.Table(header, rows))
	}
	b.WriteString("  slowdown and energy are against full power at the same run length\n")
	return b.String()
}
