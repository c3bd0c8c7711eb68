package tsdb

import (
	"fmt"
	"reflect"
	"testing"

	"powerchop/internal/obs"
)

// syntheticRun emits a small but fully featured run: three windows with
// PVT lookups, CDE activity, gating transitions and criticality scores.
func syntheticRun(t obs.Tracer) {
	emit := func(e obs.Event) { t.Emit(e) }
	emit(obs.Event{Kind: obs.KindWindowClose, Window: 1, Cycle: 1000, Count: 500})
	emit(obs.Event{Kind: obs.KindPVTMiss, Window: 1, Cycle: 1000})
	emit(obs.Event{Kind: obs.KindCDEInvoke, Window: 1, Cycle: 1000, Value: 300})
	emit(obs.Event{Kind: obs.KindWindowClose, Window: 2, Cycle: 2200, Count: 640})
	emit(obs.Event{Kind: obs.KindPVTHit, Window: 2, Cycle: 2200, Policy: 0b0110})
	emit(obs.Event{Kind: obs.KindCDEScore, Window: 2, Cycle: 2200, Unit: "VPU", Value: 0.03})
	emit(obs.Event{Kind: obs.KindCDEScore, Window: 2, Cycle: 2200, Unit: "BPU", Value: 0.4})
	emit(obs.Event{Kind: obs.KindGate, Window: 2, Cycle: 2200, Unit: "VPU", Prev: 1, Next: 0.05, Stall: 40})
	emit(obs.Event{Kind: obs.KindWindowClose, Window: 3, Cycle: 3100, Count: 720})
	emit(obs.Event{Kind: obs.KindGate, Window: 3, Cycle: 3100, Unit: "VPU", Prev: 0.05, Next: 1, Stall: 25})
	emit(obs.Event{Kind: obs.KindGate, Window: 3, Cycle: 3100, Unit: "BPU", Prev: 1, Next: 0.1, Stall: 10})
	emit(obs.Event{Kind: obs.KindRunEnd, Window: 3, Cycle: 3500})
}

func TestIngestorEmptyRun(t *testing.T) {
	s := NewStore(testConfig())
	in := NewIngestor(s, IngestorConfig{Units: []string{"VPU", "BPU"}})
	in.Emit(obs.Event{Kind: obs.KindRunEnd, Cycle: 10})
	in.Flush()
	if names := s.SeriesNames(); len(names) != 0 {
		t.Fatalf("empty run produced series: %v", names)
	}
}

func TestIngestorSingleWindow(t *testing.T) {
	s := NewStore(testConfig())
	in := NewIngestor(s, IngestorConfig{Units: []string{"VPU"}})
	in.Emit(obs.Event{Kind: obs.KindWindowClose, Window: 1, Cycle: 900, Count: 450})
	in.Emit(obs.Event{Kind: obs.KindRunEnd, Window: 1, Cycle: 950})
	want := map[string]float64{
		SeriesInsns:                  450,
		SeriesIPC:                    0.5,
		SeriesStall:                  0,
		SeriesGates:                  0,
		SeriesCDE:                    0,
		SeriesUnitFracPrefix + "VPU": 1,
	}
	for name, v := range want {
		res, err := s.Query(Query{Series: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Points) != 1 || res.Points[0].Value != v || res.Points[0].Window != 1 {
			t.Fatalf("%s: %+v, want one point of %g", name, res.Points, v)
		}
	}
	// No lookup happened, so no pvt.hit series.
	if _, err := s.Query(Query{Series: SeriesPVTHit}); err == nil {
		t.Fatal("pvt.hit should not exist without a lookup")
	}
}

func TestIngestorMirrorsTimeline(t *testing.T) {
	var events []obs.Event
	rec := obs.Tracer(tracerFunc(func(e obs.Event) { events = append(events, e) }))
	syntheticRun(rec)

	s := NewStore(testConfig())
	in := NewIngestor(s, IngestorConfig{Units: []string{"VPU", "BPU"}})
	for _, e := range events {
		in.Emit(e)
	}

	tl := obs.NewTimeline(events)
	if len(tl.Rows) != 3 {
		t.Fatalf("timeline rows: %d", len(tl.Rows))
	}
	check := func(series string, pick func(r obs.TimelineRow) float64) {
		t.Helper()
		res, err := s.Query(Query{Series: series})
		if err != nil {
			t.Fatalf("%s: %v", series, err)
		}
		if len(res.Points) != len(tl.Rows) {
			t.Fatalf("%s: %d points, timeline has %d rows", series, len(res.Points), len(tl.Rows))
		}
		for i, p := range res.Points {
			r := tl.Rows[i]
			if p.Window != r.Window || p.Cycle != r.EndCycle || p.Value != pick(r) {
				t.Fatalf("%s window %d: point %+v, timeline row %+v", series, r.Window, p, r)
			}
		}
	}
	check(SeriesInsns, func(r obs.TimelineRow) float64 { return float64(r.Insns) })
	check(SeriesCDE, func(r obs.TimelineRow) float64 { return float64(r.CDEInvokes) })
	check(SeriesGates, func(r obs.TimelineRow) float64 { return float64(r.Gates) })
	check(SeriesStall, func(r obs.TimelineRow) float64 { return r.Stall })
	for ui, u := range tl.Units {
		ui := ui
		check(SeriesUnitFracPrefix+u, func(r obs.TimelineRow) float64 { return r.Fracs[ui] })
	}

	// PVT outcomes: window 1 missed, window 2 hit, window 3 no lookup.
	res, err := s.Query(Query{Series: SeriesPVTHit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Value != 0 || res.Points[1].Value != 1 {
		t.Fatalf("pvt.hit points: %+v", res.Points)
	}
	// Criticality scores landed on window 2.
	res, err = s.Query(Query{Series: SeriesCritPrefix + "BPU"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Window != 2 || res.Points[0].Value != 0.4 {
		t.Fatalf("crit.BPU points: %+v", res.Points)
	}
}

// TestIngestorDeterministicReplay feeds the same stream through two
// ingestor+store pairs and requires byte-identical level contents.
func TestIngestorDeterministicReplay(t *testing.T) {
	build := func() *Store {
		s := NewStore(testConfig())
		in := NewIngestor(s, IngestorConfig{Units: []string{"VPU", "BPU", "MLC"}})
		syntheticRun(in)
		syntheticRun(in) // a second run concatenates after the first
		return s
	}
	s1, s2 := build(), build()
	names := s1.SeriesNames()
	if !reflect.DeepEqual(names, s2.SeriesNames()) {
		t.Fatalf("series diverged: %v vs %v", names, s2.SeriesNames())
	}
	for _, name := range names {
		for _, spec := range testConfig().Levels {
			b1 := fmt.Sprintf("%+v", s1.LevelBuckets(name, spec.Bucket))
			b2 := fmt.Sprintf("%+v", s2.LevelBuckets(name, spec.Bucket))
			if b1 != b2 {
				t.Fatalf("series %s level %d diverged:\n%s\n%s", name, spec.Bucket, b1, b2)
			}
		}
	}
}

// TestIngestorRunConcatenation checks a second run's windows continue
// after the first run's, with cycles offset past the first run's end.
func TestIngestorRunConcatenation(t *testing.T) {
	s := NewStore(testConfig())
	in := NewIngestor(s, IngestorConfig{Units: []string{"VPU", "BPU"}})
	syntheticRun(in)
	syntheticRun(in)
	res, err := s.Query(Query{Series: SeriesInsns})
	if err != nil {
		t.Fatal(err)
	}
	var wins []uint64
	for _, p := range res.Points {
		wins = append(wins, p.Window)
	}
	// Raw retention is 4: run 1 had windows 1..3, run 2 maps to 4..6.
	if !reflect.DeepEqual(wins, []uint64{3, 4, 5, 6}) {
		t.Fatalf("concatenated windows: %v", wins)
	}
	// Run 2's first window closes at base 3500 + 1000.
	if res.Points[1].Cycle != 4500 {
		t.Fatalf("run-2 first window cycle: %g", res.Points[1].Cycle)
	}
	// Fracs reset to full power at the run boundary: run 2's window 1
	// (global 4) sees VPU back at 1 even though run 1 left it gated.
	fr, err := s.Query(Query{Series: SeriesUnitFracPrefix + "VPU"})
	if err != nil {
		t.Fatal(err)
	}
	byWin := map[uint64]float64{}
	for _, p := range fr.Points {
		byWin[p.Window] = p.Value
	}
	if byWin[4] != 1 {
		t.Fatalf("run-2 window 1 VPU frac: %g, want boot state 1", byWin[4])
	}
}

func TestIngestorIgnoresSpans(t *testing.T) {
	s := NewStore(testConfig())
	in := NewIngestor(s, IngestorConfig{})
	in.Emit(obs.Event{Kind: obs.KindSpanBegin, Unit: "request", Count: 1})
	in.Emit(obs.Event{Kind: obs.KindSpanEnd, Unit: "request", Count: 1})
	if names := s.SeriesNames(); len(names) != 0 {
		t.Fatalf("span events produced series: %v", names)
	}
}

// TestIngestorWarmRunAllocatesNothing pins that ingest allocates
// nothing per event once a store's series and the ingestor's scratch
// exist: the serve monitor runs it on every request's event stream.
func TestIngestorWarmRunAllocatesNothing(t *testing.T) {
	in := NewIngestor(NewStore(testConfig()), IngestorConfig{Units: []string{"VPU", "BPU"}})
	syntheticRun(in)
	if n := testing.AllocsPerRun(20, func() { syntheticRun(in) }); n != 0 {
		t.Errorf("a warm run's ingest allocates %v times", n)
	}
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Emit(e obs.Event) { f(e) }
