package obs

// WindowRow is one execution window as the trace fold segments it: the
// window-close event that opened it plus the phase-boundary machinery
// that ran after that close — the PVT lookup, CDE invocations, scores
// and registration, gating transitions — and each unit's power fraction
// once the boundary settled.
type WindowRow struct {
	// Ordinal is the fold's own 1-based row count. Rows of successive
	// runs continue it, so it never repeats and no event field sets it.
	Ordinal uint64
	// Close is the window-close event: its recorded per-run Window,
	// Cycle, signature and instruction Count.
	Close Event
	// StartCycle is the previous row's close cycle in the same run (0 for
	// a run's first row); BaseCycle is the summed length of every run the
	// fold closed before this row's run.
	StartCycle, BaseCycle float64
	// Lookup is the PVT outcome at the boundary: "hit", "miss" or "-"
	// (no lookup observed, e.g. a non-PowerChop manager).
	Lookup string
	// Policy is the vector the boundary's PVT hit or CDE registration
	// applied, when HasPolicy.
	Policy    uint8
	HasPolicy bool
	// CDEInvokes counts CDE invocations at the boundary, Scores the
	// criticality scores they produced.
	CDEInvokes uint64
	Scores     []UnitScore
	// Gates counts gating transitions at the boundary and Stall their
	// total stall-cycle cost.
	Gates uint64
	Stall float64
	// Fracs holds each unit's power fraction after the boundary, aligned
	// with Fold.Units.
	Fracs []float64
}

// UnitScore is one unit's criticality score in a WindowRow.
type UnitScore struct {
	Unit  string
	Score float64
}

// Fold is the streaming trace fold: the one place an event stream turns
// into window rows and runs. A row opens at window-close; the PVT
// lookup, CDE activity and gating transitions that follow attach to it;
// the next window-close, a run-end or Flush closes it and hands it to
// the commit callback. A run-end also returns every unit to full power,
// the simulator's boot state, so each run starts where a solo run
// starts and runs folded in sequence concatenate.
//
// A Fold is not safe for concurrent use. The committed row, its Scores
// and its Fracs are reused: the callback must copy what it keeps.
type Fold struct {
	commit func(*WindowRow)
	units  []string
	slot   map[string]int
	fracs  []float64
	row    WindowRow
	open   bool
	start  float64
	base   float64
}

// NewFold builds a fold committing closed rows to commit (nil discards
// them). units pre-declares gated units, in slot order, so every row
// carries a fraction per unit before the unit first switches; units
// first seen in gate events are appended.
func NewFold(units []string, commit func(*WindowRow)) *Fold {
	f := &Fold{commit: commit, slot: make(map[string]int, len(units))}
	for _, u := range units {
		f.unit(u)
	}
	return f
}

// unit returns the unit's slot, adding it at full power on first sight.
func (f *Fold) unit(u string) int {
	i, ok := f.slot[u]
	if !ok {
		i = len(f.units)
		f.slot[u] = i
		f.units = append(f.units, u)
		f.fracs = append(f.fracs, 1)
	}
	return i
}

// Units returns the gated units in slot order. The slice is the fold's
// own; callers must not modify it.
func (f *Fold) Units() []string { return f.units }

// Fracs returns each unit's current power fraction, aligned with Units.
// The slice is the fold's own; callers must not modify it.
func (f *Fold) Fracs() []float64 { return f.fracs }

// Emit folds one event.
func (f *Fold) Emit(e Event) {
	r := &f.row
	switch e.Kind {
	case KindWindowClose:
		f.Flush()
		*r = WindowRow{
			Ordinal:    r.Ordinal + 1,
			Close:      e,
			StartCycle: f.start,
			BaseCycle:  f.base,
			Lookup:     "-",
			Scores:     r.Scores[:0],
		}
		f.open = true
		f.start = e.Cycle
	case KindPVTHit:
		if f.open {
			r.Lookup, r.Policy, r.HasPolicy = "hit", e.Policy, true
		}
	case KindPVTMiss:
		if f.open {
			r.Lookup = "miss"
		}
	case KindCDEInvoke:
		if f.open {
			r.CDEInvokes++
		}
	case KindCDEScore:
		if f.open && e.Unit != "" {
			r.Scores = append(r.Scores, UnitScore{Unit: e.Unit, Score: e.Value})
		}
	case KindCDERegister:
		if f.open {
			r.Policy, r.HasPolicy = e.Policy, true
		}
	case KindGate:
		if e.Unit != "" {
			f.fracs[f.unit(e.Unit)] = e.Next
		}
		if f.open {
			r.Gates++
			r.Stall += e.Stall
		}
	case KindRunEnd:
		f.Flush()
		if e.Cycle > 0 {
			f.base += e.Cycle
		} else {
			f.base += f.start
		}
		f.start = 0
		for i := range f.fracs {
			f.fracs[i] = 1
		}
	}
}

// Flush closes the open row, if any, without waiting for the next
// window-close or run-end: the end of a stream that carries no run-end.
func (f *Fold) Flush() {
	if !f.open {
		return
	}
	f.open = false
	f.row.Fracs = f.fracs
	if f.commit != nil {
		f.commit(&f.row)
	}
}
