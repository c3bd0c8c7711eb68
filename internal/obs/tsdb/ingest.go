package tsdb

import (
	"sort"
	"sync"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
)

// Series names the Ingestor emits. Per-unit series append "." plus the
// unit name (e.g. "unit.frac.VPU", "crit.MLC").
const (
	// SeriesInsns is the window's translated dynamic instruction count.
	SeriesInsns = "window.insns"
	// SeriesIPC is the window's instructions per cycle (instruction
	// count over the cycles since the previous window's close).
	SeriesIPC = "window.ipc"
	// SeriesStall is the stall-cycle cost charged at the window's
	// boundary and SeriesGates the gating-transition count.
	SeriesStall = "window.stall"
	SeriesGates = "window.gates"
	// SeriesCDE counts CDE invocations at the boundary.
	SeriesCDE = "window.cde"
	// SeriesPVTHit is the PVT lookup outcome at the boundary: 1 for a
	// hit, 0 for a miss; windows without a lookup emit nothing, so its
	// mean over a range is the hit rate.
	SeriesPVTHit = "pvt.hit"
	// SeriesUnitFracPrefix prefixes each unit's power fraction after the
	// boundary settled (1 = full power, the boot state).
	SeriesUnitFracPrefix = "unit.frac."
	// SeriesCritPrefix prefixes each unit's criticality score; emitted
	// only for windows where the CDE scored the unit.
	SeriesCritPrefix = "crit."
)

// IngestorConfig configures an Ingestor.
type IngestorConfig struct {
	// Units pre-declares the gated units so every window carries one
	// power-fraction sample per unit even before a unit's first gating
	// transition. Units first seen in gate events are added on the fly.
	Units []string
}

// Ingestor adapts the obs event stream into Store samples: it is one
// trace fold (obs.Fold) whose rows it commits to the store, one sample
// per series per window. The store's window ordinal is the fold's own
// row count and cycles of later runs are offset past earlier runs, so
// sequential runs through one ingestor concatenate into monotonic
// series; concurrently interleaved runs are merged best-effort.
//
// Ingestor implements obs.Tracer and is safe for concurrent use.
type Ingestor struct {
	store *Store

	mu   sync.Mutex
	fold *obs.Fold
	row  []Sample // scratch for the per-window batch commit
	// fracNames and critNames cache per-unit series names so a commit
	// builds no strings.
	fracNames []string
	critNames map[string]string
}

// NewIngestor builds an ingestor feeding the store.
func NewIngestor(store *Store, cfg IngestorConfig) *Ingestor {
	units := append([]string(nil), cfg.Units...)
	sort.Strings(units)
	in := &Ingestor{store: store, critNames: map[string]string{}}
	in.fold = obs.NewFold(units, in.commit)
	return in
}

// Ingestor returns the store's own telemetry ingestor, built on first
// use with the gated units pre-declared. Every run fed through it passes
// through one trace fold, so sequential runs into one store concatenate
// whichever call they come from.
func (s *Store) Ingestor() *Ingestor {
	s.ingestOnce.Do(func() {
		s.ingest = NewIngestor(s, IngestorConfig{Units: arch.GatedUnits()})
	})
	return s.ingest
}

// Emit implements obs.Tracer.
func (in *Ingestor) Emit(e obs.Event) {
	if obs.IsSpanKind(e.Kind) {
		return
	}
	in.mu.Lock()
	in.fold.Emit(e)
	in.mu.Unlock()
}

// commit appends a closed row to the store as one atomic batch, so a
// concurrent reader (the alert evaluator's boundary watermark in
// particular) never observes a window with only part of its series
// appended. Caller holds mu.
func (in *Ingestor) commit(r *obs.WindowRow) {
	w, c := r.Ordinal, r.BaseCycle+r.Close.Cycle
	row := in.row[:0]
	add := func(series string, v float64) {
		row = append(row, Sample{Series: series, Window: w, Cycle: c, Value: v})
	}
	insns := float64(r.Close.Count)
	add(SeriesInsns, insns)
	if dt := r.Close.Cycle - r.StartCycle; dt > 0 {
		add(SeriesIPC, insns/dt)
	}
	add(SeriesStall, r.Stall)
	add(SeriesGates, float64(r.Gates))
	add(SeriesCDE, float64(r.CDEInvokes))
	switch r.Lookup {
	case "hit":
		add(SeriesPVTHit, 1)
	case "miss":
		add(SeriesPVTHit, 0)
	}
	for _, u := range in.fold.Units()[len(in.fracNames):] {
		in.fracNames = append(in.fracNames, SeriesUnitFracPrefix+u)
	}
	for i, f := range r.Fracs {
		add(in.fracNames[i], f)
	}
	for _, sc := range r.Scores {
		name, ok := in.critNames[sc.Unit]
		if !ok {
			name = SeriesCritPrefix + sc.Unit
			in.critNames[sc.Unit] = name
		}
		add(name, sc.Score)
	}
	in.row = row
	in.store.AppendBatch(row)
}

// Flush commits any open row without waiting for the next window close
// or run end. Callers use it to publish the final window of a stream
// that ends without a run-end event.
func (in *Ingestor) Flush() {
	in.mu.Lock()
	in.fold.Flush()
	in.mu.Unlock()
}
