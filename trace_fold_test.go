package powerchop

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/obs/tsdb"
)

// foldTraces runs Compare on gobmk with a JSONL trace (plus opts'
// observers) and each of its three runs alone, and returns the
// comparison's events and each solo run's events, in run order. The
// comparison's trace must be byte-identical to the solo traces
// concatenated.
func foldTraces(t *testing.T, opts Options) (events []obs.Event, solo [][]obs.Event) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulates a benchmark four times; skipped with -short")
	}
	var trace, concat bytes.Buffer
	opts.Passes, opts.TraceWriter = 0.2, &trace
	if _, err := Compare("gobmk", opts); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{ManagerFullPower, ManagerPowerChop, ManagerMinPower} {
		var buf bytes.Buffer
		if _, err := Run("gobmk", Options{Passes: 0.2, Manager: m, TraceWriter: &buf}); err != nil {
			t.Fatal(err)
		}
		concat.Write(buf.Bytes())
		evs, err := obs.ReadJSONL(&buf)
		if err != nil {
			t.Fatal(err)
		}
		solo = append(solo, evs)
	}
	if !bytes.Equal(trace.Bytes(), concat.Bytes()) {
		t.Fatal("Compare's trace differs from its three solo traces concatenated")
	}
	events, err := obs.ReadJSONL(&trace)
	if err != nil {
		t.Fatal(err)
	}
	return events, solo
}

// soloRows concatenates the solo runs' timelines, each row's fractions
// re-aligned to units (a unit a run never gates sits at full power).
func soloRows(solo [][]obs.Event, units []string) []obs.TimelineRow {
	var rows []obs.TimelineRow
	for _, evs := range solo {
		tl := obs.NewTimeline(evs)
		for _, r := range tl.Rows {
			fracs := make([]float64, len(units))
			for i, u := range units {
				fracs[i] = 1
				for j, v := range tl.Units {
					if v == u {
						fracs[i] = r.Fracs[j]
					}
				}
			}
			r.Fracs = fracs
			rows = append(rows, r)
		}
	}
	return rows
}

// TestCompareTimelineConcatenatesRuns checks a multi-run trace's
// timeline is its runs' timelines concatenated: a run-end closes the
// last window of a run, so the next run's boot transitions attach to no
// window, and every run starts at full power.
func TestCompareTimelineConcatenatesRuns(t *testing.T) {
	events, solo := foldTraces(t, Options{})
	tl := obs.NewTimeline(events)
	want := soloRows(solo, tl.Units)
	if len(tl.Rows) != len(want) {
		t.Fatalf("timeline has %d rows, solo runs %d", len(tl.Rows), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(tl.Rows[i], want[i]) {
			t.Fatalf("row %d:\n trace: %+v\n solo:  %+v", i, tl.Rows[i], want[i])
		}
	}
}

// TestCompareTelemetryConcatenatesRuns checks the runs of one call that
// share a telemetry store pass through one fold: the raw level holds one
// point per window of every run, numbered by the fold's own row count,
// and matches the trace's timeline row for row.
func TestCompareTelemetryConcatenatesRuns(t *testing.T) {
	ts := tsdb.NewStore(tsdb.DefaultConfig())
	events, _ := foldTraces(t, Options{Telemetry: ts})
	tl := obs.NewTimeline(events)
	raw := func(series string) []tsdb.Point {
		t.Helper()
		res, err := ts.Query(tsdb.Query{Series: series})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(tl.Rows) {
			t.Fatalf("%s: %d raw points, timeline has %d rows", series, len(res.Points), len(tl.Rows))
		}
		return res.Points
	}
	insns, gates, stall := raw(tsdb.SeriesInsns), raw(tsdb.SeriesGates), raw(tsdb.SeriesStall)
	fracs := make([][]tsdb.Point, len(tl.Units))
	for ui, u := range tl.Units {
		fracs[ui] = raw(tsdb.SeriesUnitFracPrefix + u)
	}
	for i, r := range tl.Rows {
		p := insns[i]
		if p.Window != uint64(i+1) || p.Count != 1 || p.Value != float64(r.Insns) {
			t.Fatalf("row %d insns point %+v, timeline row %+v", i, p, r)
		}
		if gates[i].Value != float64(r.Gates) || stall[i].Value != r.Stall {
			t.Fatalf("row %d: gates %v stall %v, timeline row %+v", i, gates[i].Value, stall[i].Value, r)
		}
		for ui := range tl.Units {
			if fracs[ui][i].Value != r.Fracs[ui] {
				t.Fatalf("row %d %s frac %v, timeline row %+v", i, tl.Units[ui], fracs[ui][i].Value, r)
			}
		}
	}
}

// TestCompareAuditMergesRuns checks the auditor attributes a multi-run
// trace exactly as it attributes each run alone, merged: every run
// starts under (boot) at full power, and the savings are the runs' sum.
func TestCompareAuditMergesRuns(t *testing.T) {
	events, solo := foldTraces(t, Options{})
	replay := func(evs []obs.Event) *audit.Trail {
		a := audit.MustNew(audit.DesignConfig(arch.Server()))
		for _, e := range evs {
			a.Emit(e)
		}
		return a.Snapshot()
	}
	got := replay(events)

	// Merge the solo trails phase by phase, in order of first appearance.
	var want []audit.PhaseAttribution
	idx := map[string]int{}
	var saved float64
	for _, evs := range solo {
		tr := replay(evs)
		saved += tr.EnergySavedTotalJ
		for _, p := range tr.Phases {
			i, ok := idx[p.Phase]
			if !ok {
				idx[p.Phase] = len(want)
				want = append(want, p)
				continue
			}
			m := &want[i]
			m.Windows += p.Windows
			m.Insns += p.Insns
			m.Cycles += p.Cycles
			m.Hits += p.Hits
			m.Misses += p.Misses
			m.Decisions += p.Decisions
			m.Transitions += p.Transitions
			m.EnergySavedTotalJ += p.EnergySavedTotalJ
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if len(got.Phases) != len(want) {
		t.Fatalf("trace has %d phases, merged solo trails %d", len(got.Phases), len(want))
	}
	for i, w := range want {
		g := got.Phases[i]
		if g.Phase != w.Phase || g.Windows != w.Windows || g.Insns != w.Insns ||
			g.Hits != w.Hits || g.Misses != w.Misses || g.Decisions != w.Decisions ||
			g.Transitions != w.Transitions || !near(g.Cycles, w.Cycles) ||
			!near(g.EnergySavedTotalJ, w.EnergySavedTotalJ) {
			t.Fatalf("phase %d:\n trace:  %+v\n merged: %+v", i, g, w)
		}
	}
	windows := map[string]uint64{}
	for _, p := range got.Phases {
		windows[p.Phase] = p.Windows
	}
	if windows[audit.BootPhase] != 75 || windows["<t1000>"] != 36 {
		t.Errorf("windows: (boot) %d, <t1000> %d; want 75 and 36", windows[audit.BootPhase], windows["<t1000>"])
	}
	if !near(got.EnergySavedTotalJ, saved) || saved == 0 {
		t.Errorf("saved %.6g J, solo runs sum to %.6g J", got.EnergySavedTotalJ, saved)
	}
}

// TestRunTelemetryConcatenatesAcrossCalls checks separate Run calls on
// one telemetry store pass through the store's one fold: the second
// run's windows follow the first's instead of restarting at window 1
// and piling into the first run's buckets.
func TestRunTelemetryConcatenatesAcrossCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark twice; skipped with -short")
	}
	ts := tsdb.NewStore(tsdb.DefaultConfig())
	var trace bytes.Buffer
	for i := 0; i < 2; i++ {
		if _, err := Run("gobmk", Options{Passes: 0.2, TraceWriter: &trace, Telemetry: ts}); err != nil {
			t.Fatal(err)
		}
	}
	events, err := obs.ReadJSONL(&trace)
	if err != nil {
		t.Fatal(err)
	}
	rows := obs.NewTimeline(events).Rows
	res, err := ts.Query(tsdb.Query{Series: tsdb.SeriesInsns})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(res.Points) != len(rows) || ts.LatestWindow() != uint64(len(rows)) {
		t.Fatalf("%d raw points, latest window %d; the two runs' timeline has %d rows",
			len(res.Points), ts.LatestWindow(), len(rows))
	}
	for i, p := range res.Points {
		if p.Window != uint64(i+1) || p.Count != 1 || p.Value != float64(rows[i].Insns) {
			t.Fatalf("point %d %+v, timeline row %+v", i, p, rows[i])
		}
	}
}
