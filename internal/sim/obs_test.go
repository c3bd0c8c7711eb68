package sim

import (
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/obs/tsdb"
)

// runTraced runs the vector-phased program under PowerChop with a ring
// tracer and metrics collection enabled.
func runTraced(t *testing.T, translations uint64) (*Result, *obs.Ring) {
	t.Helper()
	p := vectorPhasedProgram(t)
	ring := obs.NewRing(1 << 16)
	r, err := Run(p, Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		Phase:           smallPhaseConfig(),
		MaxTranslations: translations,
		Tracer:          ring,
		Metrics:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, ring
}

func TestTracerEventFlow(t *testing.T) {
	r, ring := runTraced(t, 3000)
	events := ring.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}

	var byKind [16]int
	for _, e := range events {
		byKind[e.Kind]++
	}
	if got := byKind[obs.KindWindowClose]; uint64(got) != r.Windows {
		t.Errorf("window-close events = %d, result windows = %d", got, r.Windows)
	}
	hits := byKind[obs.KindPVTHit]
	misses := byKind[obs.KindPVTMiss]
	if uint64(hits) != r.PVT.Hits || uint64(misses) != r.PVT.Misses {
		t.Errorf("pvt events hit=%d miss=%d, stats hit=%d miss=%d",
			hits, misses, r.PVT.Hits, r.PVT.Misses)
	}
	if got := byKind[obs.KindTranslate]; uint64(got) != r.BT.Translations {
		t.Errorf("translate events = %d, BT translations = %d", got, r.BT.Translations)
	}
	if got := byKind[obs.KindCDEInvoke]; uint64(got) != r.PVTMissInts {
		t.Errorf("cde-invoke events = %d, PVT-miss interrupts = %d", got, r.PVTMissInts)
	}
	if byKind[obs.KindGate] == 0 {
		t.Error("no gate transitions traced")
	}
	if byKind[obs.KindCDERegister] == 0 {
		t.Error("no CDE registrations traced")
	}
}

// TestTracerStamping checks that events emitted by clockless components are
// stamped with the simulation clock and window counter.
func TestTracerStamping(t *testing.T) {
	_, ring := runTraced(t, 3000)
	var lastCycle float64
	sawStampedWindow := false
	for _, e := range ring.Events() {
		if e.Kind == obs.KindGate {
			continue // gate events carry their own (possibly retroactive) cycle
		}
		if e.Cycle < lastCycle {
			t.Fatalf("%s event at cycle %.0f after cycle %.0f", e.Kind, e.Cycle, lastCycle)
		}
		lastCycle = e.Cycle
		if e.Window > 0 {
			sawStampedWindow = true
		}
	}
	if lastCycle == 0 {
		t.Error("no stamped cycles observed")
	}
	if !sawStampedWindow {
		t.Error("no stamped window indices observed")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	r, _ := runTraced(t, 3000)
	if r.Metrics == nil {
		t.Fatal("Metrics=true produced no snapshot")
	}
	if got := r.Metrics.Counter("events.window-close"); got != r.Windows {
		t.Errorf("metrics window-close = %d, result windows = %d", got, r.Windows)
	}
	h, ok := r.Metrics.Histogram("window.insns")
	if !ok {
		t.Fatal("missing window.insns histogram")
	}
	if h.Count != r.Windows {
		t.Errorf("window.insns observations = %d, windows = %d", h.Count, r.Windows)
	}
	if r.Metrics.Counter("events.total") == 0 {
		t.Error("events.total is zero")
	}
	if out := r.Metrics.Render(); out == "" {
		t.Error("empty metrics render")
	}
}

// TestMetricsWithoutTracer checks metrics collection works with no trace sink.
func TestMetricsWithoutTracer(t *testing.T) {
	p := vectorPhasedProgram(t)
	r, err := Run(p, Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		Phase:           smallPhaseConfig(),
		MaxTranslations: 1000,
		Metrics:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil || r.Metrics.Counter("events.total") == 0 {
		t.Fatal("metrics-only run produced no snapshot")
	}
}

// TestTracingMatchesUntraced checks observability is passive: the same run
// with and without tracing produces identical timing results.
func TestTracingMatchesUntraced(t *testing.T) {
	plain := runWith(t, vectorPhasedProgram(t), core.MustPowerChop(core.DefaultConfig()), 3000)
	traced, _ := runTraced(t, 3000)
	if plain.Cycles != traced.Cycles || plain.GuestInsns != traced.GuestInsns {
		t.Errorf("tracing perturbed the run: cycles %v vs %v, insns %d vs %d",
			plain.Cycles, traced.Cycles, plain.GuestInsns, traced.GuestInsns)
	}
	if plain.Power.AvgPowerW() != traced.Power.AvgPowerW() {
		t.Errorf("tracing perturbed power: %v vs %v", plain.Power.AvgPowerW(), traced.Power.AvgPowerW())
	}
}

// TestTelemetryMatchesPlain checks the telemetry store is a pure observer:
// a run with a tsdb store attached is bit-identical to one without, and the
// store ends up holding one raw sample per closed window.
func TestTelemetryMatchesPlain(t *testing.T) {
	plain := runWith(t, vectorPhasedProgram(t), core.MustPowerChop(core.DefaultConfig()), 3000)

	ts := tsdb.NewStore(tsdb.DefaultConfig())
	teled, err := Run(vectorPhasedProgram(t), Config{
		Design:          arch.Server(),
		Manager:         core.MustPowerChop(core.DefaultConfig()),
		Phase:           smallPhaseConfig(),
		MaxTranslations: 3000,
		Tracer:          ts.Ingestor(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != teled.Cycles || plain.GuestInsns != teled.GuestInsns {
		t.Errorf("telemetry perturbed the run: cycles %v vs %v, insns %d vs %d",
			plain.Cycles, teled.Cycles, plain.GuestInsns, teled.GuestInsns)
	}
	if plain.Power.AvgPowerW() != teled.Power.AvgPowerW() {
		t.Errorf("telemetry perturbed power: %v vs %v", plain.Power.AvgPowerW(), teled.Power.AvgPowerW())
	}

	names := ts.SeriesNames()
	if len(names) == 0 {
		t.Fatal("telemetry run filled no series")
	}
	for _, want := range []string{
		tsdb.SeriesInsns, tsdb.SeriesIPC, tsdb.SeriesStall,
		tsdb.SeriesUnitFracPrefix + arch.UnitVPU,
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("series %q missing from %v", want, names)
		}
	}
	res, err := ts.Query(tsdb.Query{Series: tsdb.SeriesInsns})
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res.Points)) != teled.Windows {
		t.Errorf("window.insns raw points = %d, result windows = %d", len(res.Points), teled.Windows)
	}
}
