package obs

import (
	"fmt"
	"sort"

	"powerchop/internal/textplot"
)

// TimelineRow is one execution window of a trace: the window's identity
// and contents (from its window-close event) plus the phase-boundary
// machinery that ran at its close — the PVT lookup outcome, CDE
// invocations, gating transitions — and each unit's power fraction once
// the boundary settled.
type TimelineRow struct {
	// Window is the window's recorded per-run ordinal (1-based).
	Window uint64 `json:"window"`
	// EndCycle is the simulated cycle at the window's close.
	EndCycle float64 `json:"end_cycle"`
	// Sig is the rendered phase signature ("<t1a,t2b>").
	Sig string `json:"sig"`
	// Insns is the window's translated dynamic instruction count.
	Insns uint64 `json:"insns"`
	// Lookup is the PVT outcome at the boundary: "hit", "miss" or "-"
	// (no lookup observed, e.g. a non-PowerChop manager).
	Lookup string `json:"lookup"`
	// Policy is the policy vector applied at the boundary ("0110"), or
	// "-" when none was observed.
	Policy string `json:"policy"`
	// CDEInvokes counts CDE invocations at the boundary.
	CDEInvokes uint64 `json:"cde_invokes"`
	// Gates counts gating transitions at the boundary and Stall their
	// total stall-cycle cost.
	Gates uint64  `json:"gates"`
	Stall float64 `json:"stall"`
	// Fracs holds each unit's power fraction after the boundary, aligned
	// with Timeline.Units. Units never seen gating yet report 1 (full
	// power, the simulator's boot state).
	Fracs []float64 `json:"fracs"`
}

// Timeline is a per-window replay of a trace: one row per execution
// window, in close order, tracking unit power state across the trace.
// Built by NewTimeline from a time-ordered event stream.
type Timeline struct {
	// Units lists the gated units observed, sorted; every row's Fracs
	// aligns with it.
	Units []string      `json:"units"`
	Rows  []TimelineRow `json:"rows"`
}

// NewTimeline replays a time-ordered event stream, as written by a JSONL
// trace, through the trace fold (see Fold): one row per window, the
// boundary machinery that follows a window's close attributed to it, and
// every run starting from full power.
func NewTimeline(events []Event) *Timeline {
	// Discover the gated units first so every row's Fracs has one slot
	// per unit regardless of when the unit first switches.
	unitSet := map[string]bool{}
	for _, e := range events {
		if e.Kind == KindGate && e.Unit != "" {
			unitSet[e.Unit] = true
		}
	}
	units := make([]string, 0, len(unitSet))
	for u := range unitSet {
		units = append(units, u)
	}
	sort.Strings(units)

	tl := &Timeline{Units: units}
	f := NewFold(units, func(r *WindowRow) {
		row := TimelineRow{
			Window:     r.Close.Window,
			EndCycle:   r.Close.Cycle,
			Sig:        r.Close.SigString(),
			Insns:      r.Close.Count,
			Lookup:     r.Lookup,
			Policy:     "-",
			CDEInvokes: r.CDEInvokes,
			Gates:      r.Gates,
			Stall:      r.Stall,
			Fracs:      append([]float64(nil), r.Fracs...),
		}
		if r.HasPolicy {
			row.Policy = Event{Policy: r.Policy}.PolicyString()
		}
		tl.Rows = append(tl.Rows, row)
	})
	for _, e := range events {
		f.Emit(e)
	}
	f.Flush()
	return tl
}

// Render formats the timeline as a text table. last bounds the output to
// the most recent rows (<= 0 shows every window); skipped leading rows
// are counted in a heading note.
func (tl *Timeline) Render(last int) string {
	rows := tl.Rows
	skipped := 0
	if last > 0 && len(rows) > last {
		skipped = len(rows) - last
		rows = rows[skipped:]
	}
	header := []string{"win", "cycle", "phase", "insns", "lookup", "policy", "cde", "gates", "stall"}
	for _, u := range tl.Units {
		header = append(header, u)
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		cells := []string{
			fmt.Sprintf("%d", r.Window),
			fmt.Sprintf("%.6g", r.EndCycle),
			r.Sig,
			fmt.Sprintf("%d", r.Insns),
			r.Lookup,
			r.Policy,
			fmt.Sprintf("%d", r.CDEInvokes),
			fmt.Sprintf("%d", r.Gates),
			fmt.Sprintf("%.4g", r.Stall),
		}
		for _, f := range r.Fracs {
			cells = append(cells, fmt.Sprintf("%.2f", f))
		}
		table = append(table, cells)
	}
	out := fmt.Sprintf("timeline: %d windows, %d gated units\n", len(tl.Rows), len(tl.Units))
	if skipped > 0 {
		out += fmt.Sprintf("(%d earlier windows skipped)\n", skipped)
	}
	return out + textplot.Table(header, table)
}
