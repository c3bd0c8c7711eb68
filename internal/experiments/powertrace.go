package experiments

import (
	"context"
	"fmt"

	"powerchop/internal/arch"
	"powerchop/internal/obs/tsdb"
	"powerchop/internal/stats"
	"powerchop/internal/workload"
)

// PowerTrace renders the telemetry view of a PowerChop run: per-unit
// power fractions and IPC per HTB window, read back from the time-series
// store rather than from Result fields. It is both a figure — the
// per-window shape of PowerChop's gating decisions on gobmk — and an end
// to end exercise of the tsdb pipeline (ingest during the run, range
// query after).
func PowerTrace(ctx context.Context, r *Runner) (*TimeSeriesResult, error) {
	return PowerTraceBench(ctx, r, "gobmk")
}

// telemetry is a template's run with the time-series store's ingestor
// attached as the lane's tracer. Like every observed lane it is never
// cached or deduplicated, but still bounded by the runner's job slots,
// and like a sampled lane it stays silent on progress. The runner's
// shared Tracer, if any, stays attached alongside, so figure output
// remains byte-identical either way.
func telemetry(l Lane, ts *tsdb.Store) Lane {
	l.Tracer, l.Silent = ts.Ingestor(), true
	return l
}

// traceSeries queries one series' raw level into a labeled value list.
func traceSeries(ts *tsdb.Store, name, label string) (stats.Series, error) {
	res, err := ts.Query(tsdb.Query{Series: name})
	if err != nil {
		return stats.Series{}, err
	}
	s := stats.Series{Label: label}
	for _, p := range res.Points {
		s.Append(p.Value)
	}
	return s, nil
}

// PowerTraceBench is PowerTrace on a named benchmark.
func PowerTraceBench(ctx context.Context, r *Runner, bench string) (*TimeSeriesResult, error) {
	b, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	ts := tsdb.NewStore(tsdb.DefaultConfig())
	set, err := r.ResultSet(ctx, []workload.Benchmark{b}, []Lane{telemetry(powerChop, ts)})
	if err != nil {
		return nil, err
	}
	res := set[0][0]

	var series []stats.Series
	for _, unit := range []string{arch.UnitVPU, arch.UnitBPU, arch.UnitMLC} {
		s, err := traceSeries(ts, tsdb.SeriesUnitFracPrefix+unit, "power-frac "+unit)
		if err != nil {
			return nil, err
		}
		series = append(series, s)
	}
	ipc, err := traceSeries(ts, tsdb.SeriesIPC, "IPC")
	if err != nil {
		return nil, err
	}
	series = append(series, ipc)

	return &TimeSeriesResult{
		Title:  fmt.Sprintf("Power trace: per-window unit power fractions under PowerChop on %s", bench),
		XLabel: "HTB windows (telemetry raw level)",
		Series: series,
		Remarks: []string{
			fmt.Sprintf("windows: %d; mean power-frac VPU %.3f, BPU %.3f, MLC %.3f",
				res.Windows,
				stats.Mean(series[0].Values), stats.Mean(series[1].Values), stats.Mean(series[2].Values)),
		},
	}, nil
}
