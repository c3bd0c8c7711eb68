package program

import (
	"fmt"

	"powerchop/internal/rng"
)

// Walker executes a Program deterministically: it advances the phase
// schedule, draws regions according to the active phase's weights, and
// produces the dynamic behaviour (branch outcomes, effective addresses) of
// each instruction. A Walker owns all mutable execution state, so a single
// Program can back many concurrent runs.
type Walker struct {
	prog       *Program
	rnd        *rng.Source
	phaseIdx   int
	phaseLeft  int
	globalHist uint64
	branchSt   [][]branchState
	streamSt   [][]streamState
	streamPtr  [][]*streamState // resolved state per region×sel; shared streams alias one entry
	cum        [][]float64      // per phase: cumulative region weights
	executed   uint64           // region executions so far
}

// NewWalker validates p and returns a walker positioned at the start of the
// first phase.
func NewWalker(p *Program) (*Walker, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	w := &Walker{
		prog:      p,
		rnd:       rng.New(p.Seed),
		branchSt:  make([][]branchState, len(p.Regions)),
		streamSt:  make([][]streamState, len(p.Regions)),
		streamPtr: make([][]*streamState, len(p.Regions)),
		cum:       make([][]float64, len(p.Phases)),
	}
	// Resolve each stream's state pointer up front: streams carrying a
	// SharedID alias one state per (SharedID, sel) pair across regions,
	// the rest get private per-region state. Address then indexes the
	// table instead of consulting a map per access.
	shared := make(map[uint64]*streamState)
	for i, r := range p.Regions {
		w.branchSt[i] = make([]branchState, len(r.Branches))
		w.streamSt[i] = make([]streamState, len(r.Streams))
		w.streamPtr[i] = make([]*streamState, len(r.Streams))
		for j := range r.Streams {
			if id := r.Streams[j].SharedID; id != 0 {
				key := uint64(id)<<8 | uint64(j)
				st := shared[key]
				if st == nil {
					st = &streamState{}
					shared[key] = st
				}
				w.streamPtr[i][j] = st
			} else {
				w.streamPtr[i][j] = &w.streamSt[i][j]
			}
		}
	}
	for i, ph := range p.Phases {
		cum := make([]float64, len(ph.Weights))
		total := 0.0
		for j, wt := range ph.Weights {
			total += wt
			cum[j] = total
		}
		w.cum[i] = cum
	}
	w.phaseLeft = p.Phases[0].Translations
	return w, nil
}

// Program returns the walked program.
func (w *Walker) Program() *Program { return w.prog }

// PhaseName returns the name of the currently active phase.
func (w *Walker) PhaseName() string { return w.prog.Phases[w.phaseIdx].Name }

// Executed returns the number of region executions performed so far.
func (w *Walker) Executed() uint64 { return w.executed }

// Next draws the next region to execute and advances the phase schedule,
// returning the region's index within Program.Regions. The schedule is
// cyclic: after the last phase the walker returns to the first.
func (w *Walker) Next() int {
	if w.phaseLeft == 0 {
		w.phaseIdx++
		if w.phaseIdx >= len(w.prog.Phases) {
			w.phaseIdx = 0
		}
		w.phaseLeft = w.prog.Phases[w.phaseIdx].Translations
	}
	w.phaseLeft--
	w.executed++

	cum := w.cum[w.phaseIdx]
	total := cum[len(cum)-1]
	x := w.rnd.Float64() * total
	// Linear scan: phases activate only a handful of regions, and the
	// cumulative array is short (tens of entries at most).
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// BranchOutcome produces the dynamic outcome of the branch site sel within
// region ri and records it in the global history register.
func (w *Walker) BranchOutcome(ri int, sel uint8) bool {
	r := w.prog.Regions[ri]
	taken := r.Branches[sel].outcome(&w.branchSt[ri][sel], w.globalHist, w.rnd)
	w.globalHist = w.globalHist<<1 | boolBit(taken)
	return taken
}

// GlobalHistory exposes the walker's global branch-outcome shift register
// (most recent outcome in bit 0). Predictor models use it only in tests;
// real predictors maintain their own history.
func (w *Walker) GlobalHistory() uint64 { return w.globalHist }

// Address produces the next effective address of memory stream sel within
// region ri. Streams carrying a SharedID advance a single shared pointer
// across all regions referencing them, so region variants walk one logical
// data stream.
func (w *Walker) Address(ri int, sel uint8) uint64 {
	return w.prog.Regions[ri].Streams[sel].next(w.streamPtr[ri][sel], w.rnd)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// MustWalker is a test/CLI helper that panics if the program is invalid.
func MustWalker(p *Program) *Walker {
	w, err := NewWalker(p)
	if err != nil {
		panic(fmt.Sprintf("program: %v", err))
	}
	return w
}
