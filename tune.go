package powerchop

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"powerchop/internal/experiments"
	"powerchop/internal/obs/span"
	"powerchop/internal/policy"
	"powerchop/internal/stats"
	"powerchop/internal/textplot"
)

// TuneOptions configures a parameter-grid sweep of one policy.
type TuneOptions struct {
	// Policy names the registered policy to sweep (see PolicyNames).
	Policy string
	// Benchmarks are the workloads averaged over (default: gobmk).
	Benchmarks []string
	// Grid overrides the swept values per parameter name. Parameters
	// without an entry get the default grid: {max(min, default/2),
	// default, min(max, default·2)}, deduplicated. An explicit empty
	// slice pins the parameter to its default.
	Grid map[string][]float64
	// Options are the base run options (Arch, Passes, Cache, CacheDir,
	// Parallelism...). Manager and Params are ignored — the sweep sets
	// them. Runs share Run's cache keys, so a warm result cache makes
	// repeated sweeps near-instant and tuner points reconcile exactly
	// with Run and Compare at the same values.
	Options Options
}

// TunePoint is one grid point's outcome, averaged over the benchmarks.
type TunePoint struct {
	// Params is the point's full parameter assignment.
	Params map[string]float64 `json:"params"`
	// Fingerprint is the point's deterministic policy identity (the
	// persistent-cache manager key).
	Fingerprint string `json:"fingerprint"`
	// EnergySaved is the mean total-energy reduction vs full power;
	// Slowdown the mean cycle-count increase.
	EnergySaved float64 `json:"energySaved"`
	Slowdown    float64 `json:"slowdown"`
	// Pareto marks frontier membership: no other point saves at least
	// as much energy with at most the slowdown (one strictly better).
	Pareto bool `json:"pareto"`
}

// TuneResult is a completed sweep: every grid point plus the Pareto
// frontier over (maximize energy saved, minimize slowdown).
type TuneResult struct {
	Policy     string      `json:"policy"`
	Benchmarks []string    `json:"benchmarks"`
	Points     []TunePoint `json:"points"`
	// Frontier holds the Pareto-optimal points, sorted by slowdown.
	Frontier []TunePoint `json:"frontier"`
}

// paramOrder is the schema's declaration order for rendering.
func paramOrder(spec policy.Spec) []string {
	names := make([]string, len(spec.Params))
	for i, p := range spec.Params {
		names[i] = p.Name
	}
	return names
}

// Render draws the frontier table and an energy-vs-slowdown chart of
// every grid point (frontier points marked with *).
func (t *TuneResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pareto frontier: %s over %s (%d grid points, %d on frontier)\n",
		t.Policy, strings.Join(t.Benchmarks, ","), len(t.Points), len(t.Frontier))

	var order []string
	if spec, ok := policy.Lookup(t.Policy); ok {
		order = paramOrder(spec)
	} else if len(t.Points) > 0 {
		for k := range t.Points[0].Params {
			order = append(order, k)
		}
		sort.Strings(order)
	}
	header := append(append([]string{}, order...), "energy saved", "slowdown")
	var rows [][]string
	for _, p := range t.Frontier {
		row := make([]string, 0, len(header))
		for _, k := range order {
			row = append(row, fmt.Sprintf("%g", p.Params[k]))
		}
		row = append(row,
			fmt.Sprintf("%.2f%%", p.EnergySaved*100),
			fmt.Sprintf("%.2f%%", p.Slowdown*100))
		rows = append(rows, row)
	}
	b.WriteString(textplot.RightTable(header, rows))

	sorted := append([]TunePoint{}, t.Points...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Slowdown < sorted[j].Slowdown })
	chart := make([]textplot.Row, len(sorted))
	for i, p := range sorted {
		mark := " "
		if p.Pareto {
			mark = "*"
		}
		chart[i] = textplot.Row{
			Label: fmt.Sprintf("%s slow %5.2f%%", mark, p.Slowdown*100),
			Value: p.EnergySaved * 100,
		}
	}
	b.WriteString(textplot.BarChart(
		"energy saved (%) by grid point (sorted by slowdown, * = frontier)",
		chart, 40, "%.2f%%"))
	return b.String()
}

// dedupeValues drops repeated values from a grid axis, keeping the first
// occurrence of each in order. Duplicates arise when a parameter's
// default sits on (or near) a bound — clamping half/double onto Min or
// Max collapses points — and when explicit -grid lists or degenerate
// LO:HI:STEPS ranges repeat a value; without deduplication the odometer
// would multiply every repeat into whole duplicate grid points, each
// re-running (or re-fetching) identical simulations.
func dedupeValues(vals []float64) []float64 {
	out := vals[:0:len(vals)]
	for _, v := range vals {
		seen := false
		for _, u := range out {
			if u == v {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

// defaultGrid is the swept values of one parameter when no explicit
// grid is given: half, default, double, clamped to the bounds and
// deduplicated (a zero default, or one sitting on a bound, collapses
// the clamped points).
func defaultGrid(p policy.Param) []float64 {
	lo, hi := p.Default/2, p.Default*2
	if lo < p.Min {
		lo = p.Min
	}
	if hi > p.Max {
		hi = p.Max
	}
	return dedupeValues([]float64{lo, p.Default, hi})
}

// tuneGrid enumerates the sweep's parameter assignments in a
// deterministic order: an odometer over the schema's declaration order.
// Every axis is deduplicated first, so the sweep never contains two
// points with identical parameter assignments. An axis, or a product of
// axes, above policy.MaxGridPoints is an error, reported before the
// points are built.
func tuneGrid(spec policy.Spec, overrides map[string][]float64) ([]policy.Params, error) {
	for name := range overrides {
		found := false
		for _, p := range spec.Params {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("powerchop: policy %s has no parameter %q", spec.Name, name)
		}
	}
	axes := make([][]float64, len(spec.Params))
	size := 1.0
	for i, p := range spec.Params {
		vals, ok := overrides[p.Name]
		switch {
		case len(vals) > policy.MaxGridPoints:
			return nil, fmt.Errorf("powerchop: %s grid axis %s has %d values, above the limit of %d",
				spec.Name, p.Name, len(vals), policy.MaxGridPoints)
		case len(vals) > 0:
			axes[i] = dedupeValues(append([]float64(nil), vals...))
		case ok:
			axes[i] = []float64{p.Default}
		default:
			axes[i] = defaultGrid(p)
		}
		size *= float64(len(axes[i]))
	}
	if size > policy.MaxGridPoints {
		return nil, fmt.Errorf("powerchop: %s grid has %.0f points, above the limit of %d",
			spec.Name, size, policy.MaxGridPoints)
	}
	points := []policy.Params{{}}
	for i, p := range spec.Params {
		var next []policy.Params
		for _, base := range points {
			for _, v := range axes[i] {
				pt := base.Clone()
				if pt == nil {
					pt = policy.Params{}
				}
				pt[p.Name] = v
				next = append(next, pt)
			}
		}
		points = next
	}
	return points, nil
}

// markPareto flags the non-dominated points and returns the frontier
// sorted by slowdown.
func markPareto(points []TunePoint) []TunePoint {
	var frontier []TunePoint
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			betterOrEqual := points[j].EnergySaved >= points[i].EnergySaved &&
				points[j].Slowdown <= points[i].Slowdown
			strictly := points[j].EnergySaved > points[i].EnergySaved ||
				points[j].Slowdown < points[i].Slowdown
			if betterOrEqual && strictly {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
		if !dominated {
			frontier = append(frontier, points[i])
		}
	}
	sort.SliceStable(frontier, func(i, j int) bool {
		if frontier[i].Slowdown != frontier[j].Slowdown {
			return frontier[i].Slowdown < frontier[j].Slowdown
		}
		return frontier[i].Fingerprint < frontier[j].Fingerprint
	})
	return frontier
}

// Tune sweeps the policy's parameter grid and returns every point's
// (energy saved, slowdown) vs the full-power baseline, averaged over
// the benchmarks, plus the Pareto frontier. Each benchmark's baseline
// and grid points are lanes of one call: cold lanes share batched
// simulations (unless Options.Batch is 1) and, with Options.Parallelism
// above one, the groups run concurrently. Batching is a pure wall-clock
// optimization: with Options.Cache (or CacheDir) set the sweep fills
// and reuses exactly the same persistent entries as Run and Compare,
// and every point reconciles byte-for-byte with a Run at the same
// parameters, which simulates it as a group of one lane.
func Tune(opts TuneOptions) (*TuneResult, error) {
	return TuneContext(context.Background(), opts)
}

// TuneContext is Tune under a context; when ctx carries a span the
// sweep runs under a "tune" child span.
func TuneContext(ctx context.Context, opts TuneOptions) (res *TuneResult, err error) {
	spec, ok := policy.Lookup(opts.Policy)
	if !ok {
		return nil, fmt.Errorf("powerchop: unknown policy %q (known: %v)", opts.Policy, PolicyNames())
	}
	benchmarks := opts.Benchmarks
	if len(benchmarks) == 0 {
		benchmarks = []string{"gobmk"}
	}
	grid, err := tuneGrid(spec, opts.Grid)
	if err != nil {
		return nil, err
	}
	ctx, sp := span.Start(ctx, "tune",
		"policy="+spec.Name, fmt.Sprintf("points=%d", len(grid)))
	defer func() { sp.EndErr(err) }()

	// Per benchmark: the full-power baseline, then every grid point.
	base := opts.Options
	base.Manager, base.Params = "", nil
	stride := len(grid) + 1
	lanes := make([]experiments.Lane, 0, stride*len(benchmarks))
	for _, bench := range benchmarks {
		b, p, err := build(bench)
		if err != nil {
			return nil, err
		}
		o := base
		o.Manager = ManagerFullPower
		for i := -1; i < len(grid); i++ {
			if i >= 0 {
				o.Manager, o.Params = spec.Name, grid[i]
			}
			l, err := lane(p, b, o)
			if err != nil {
				return nil, err
			}
			lanes = append(lanes, l)
		}
	}
	reports, err := submit(ctx, base, lanes)
	if err != nil {
		return nil, err
	}

	points := make([]TunePoint, len(grid))
	for i, params := range grid {
		var saved, slow []float64
		for bi := range benchmarks {
			f, rep := reports[bi*stride], reports[bi*stride+1+i]
			saved = append(saved, 1-rep.TotalEnergyJ/f.TotalEnergyJ)
			slow = append(slow, rep.Cycles/f.Cycles-1)
		}
		points[i] = TunePoint{
			Params:      params,
			Fingerprint: lanes[1+i].ManagerKey,
			EnergySaved: stats.Mean(saved),
			Slowdown:    stats.Mean(slow),
		}
	}
	res = &TuneResult{Policy: spec.Name, Benchmarks: benchmarks, Points: points}
	res.Frontier = markPareto(res.Points)
	return res, nil
}
