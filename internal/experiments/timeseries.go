package experiments

import (
	"context"
	"fmt"
	"strings"

	"powerchop/internal/sim"
	"powerchop/internal/stats"
	"powerchop/internal/textplot"
	"powerchop/internal/workload"
)

// TimeSeriesResult is a Figure 1-3 style time-series comparison.
type TimeSeriesResult struct {
	Title   string
	XLabel  string
	Series  []stats.Series
	Remarks []string
}

// Render draws the series as sparklines with their ranges.
func (t *TimeSeriesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (x: %s)\n", t.Title, t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "  %s\n", textplot.Series(s.Label, s.Values, 72))
	}
	for _, r := range t.Remarks {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// sampleInterval for the time-series figures (guest instructions).
const tsSampleInterval = 20000

// sampled runs the benchmark under each template with time-series
// sampling enabled, in one ResultSet call. The sample interval is part
// of a lane's key, so sampled runs never alias the canonical run; they
// stay silent on the progress board, which keys rows by manager.
func sampled(ctx context.Context, r *Runner, bench string, templates ...Lane) ([]*sim.Result, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	for i := range templates {
		templates[i].SampleInterval, templates[i].Silent = tsSampleInterval, true
	}
	set, err := r.ResultSet(ctx, []workload.Benchmark{b}, templates)
	if err != nil {
		return nil, err
	}
	return set[0], nil
}

// Figure1 reproduces the paper's Figure 1: vector-operation intensity over
// the execution of gobmk, showing VPU criticality varying across phases
// (including scarce-but-nonzero periods).
func Figure1(ctx context.Context, r *Runner) (*TimeSeriesResult, error) {
	res, err := sampled(ctx, r, "gobmk", fullPower)
	if err != nil {
		return nil, err
	}
	vec := stats.Series{Label: "vector-ops"}
	for _, s := range res[0].Samples {
		vec.Append(float64(s.VectorOps))
	}
	zero, nonzeroLow := 0, 0
	for _, v := range vec.Values {
		switch {
		case v == 0:
			zero++
		case v <= 0.002*tsSampleInterval:
			nonzeroLow++
		}
	}
	return &TimeSeriesResult{
		Title:  "Figure 1: vector operation intensity over gobmk execution",
		XLabel: fmt.Sprintf("%d-instruction intervals", tsSampleInterval),
		Series: []stats.Series{vec},
		Remarks: []string{
			fmt.Sprintf("intervals with zero vector ops: %d/%d; scarce-but-nonzero: %d/%d",
				zero, len(vec.Values), nonzeroLow, len(vec.Values)),
		},
	}, nil
}

// Figure2 reproduces Figure 2: IPC of the MobileBench msn browser workload
// under the small (local) and large (tournament) branch predictors. The
// large predictor wins overall, but during many phases the benefit is
// negligible.
func Figure2(ctx context.Context, r *Runner) (*TimeSeriesResult, error) {
	res, err := sampled(ctx, r, "msn", fullPower, smallBPU)
	if err != nil {
		return nil, err
	}
	largeS := stats.Series{Label: "large-bpu IPC"}
	for _, s := range res[0].Samples {
		largeS.Append(s.IPC)
	}
	smallS := stats.Series{Label: "small-bpu IPC"}
	for _, s := range res[1].Samples {
		smallS.Append(s.IPC)
	}
	return &TimeSeriesResult{
		Title:  "Figure 2: small (local) vs large (tournament) BPU IPC on MobileBench msn",
		XLabel: fmt.Sprintf("%d-instruction intervals", tsSampleInterval),
		Series: []stats.Series{largeS, smallS},
		Remarks: []string{
			fmt.Sprintf("mean IPC: large %.3f, small %.3f (large wins overall; equal during biased-branch phases)",
				stats.Mean(largeS.Values), stats.Mean(smallS.Values)),
		},
	}, nil
}

// Figure3 reproduces Figure 3: IPC of GemsFDTD with the full 1024KB 8-way
// MLC vs the 128KB 1-way configuration. The full MLC only matters during
// the phase whose working set fits it.
func Figure3(ctx context.Context, r *Runner) (*TimeSeriesResult, error) {
	res, err := sampled(ctx, r, "GemsFDTD", fullPower, mlcOneWay)
	if err != nil {
		return nil, err
	}
	fullS := stats.Series{Label: "1024KB 8-way IPC"}
	for _, s := range res[0].Samples {
		fullS.Append(s.IPC)
	}
	oneS := stats.Series{Label: "128KB 1-way IPC"}
	for _, s := range res[1].Samples {
		oneS.Append(s.IPC)
	}
	return &TimeSeriesResult{
		Title:  "Figure 3: 128KB 1-way vs 1024KB 8-way MLC performance on GemsFDTD",
		XLabel: fmt.Sprintf("%d-instruction intervals", tsSampleInterval),
		Series: []stats.Series{fullS, oneS},
		Remarks: []string{
			fmt.Sprintf("mean IPC: full MLC %.3f, 1-way %.3f; the gap concentrates in the MLC-resident phase",
				stats.Mean(fullS.Values), stats.Mean(oneS.Values)),
		},
	}, nil
}
