package obs

import "time"

// Run states a RunUpdate reports: a run is queued when registered,
// simulating once it holds a job slot, and done or error when it
// completes.
const (
	StateQueued     = "queued"
	StateSimulating = "simulating"
	StateDone       = "done"
	StateError      = "error"
)

// RunUpdate is one progress report about a (benchmark, kind) run: where
// it is in its lifecycle and how far its simulated clock has advanced.
// One type serves every layer: experiments.Runner emits it, the root
// package exposes it as RunProgress, and the serve board merges it into
// the /progress rows, which are its JSON form. During simulation the
// counters advance window by window; Elapsed and Err are set on the
// terminal states.
type RunUpdate struct {
	Benchmark string `json:"benchmark"`
	// Kind is the run's manager key: the policy fingerprint for every
	// run of a registered policy, figure runs among them (e.g.
	// "timeout{idle-cycles=20000}", so every grid point of a sweep is its
	// own row), and the setup's name for the figures' study-only setups
	// (e.g. "powerchop-vpu").
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Cycles is the current simulated cycle count.
	Cycles float64 `json:"cycles,omitempty"`
	// Translations/Total are region executions done vs budgeted.
	Translations uint64 `json:"translations,omitempty"`
	Total        uint64 `json:"total,omitempty"`
	// Windows is the number of closed HTB windows.
	Windows uint64 `json:"windows,omitempty"`
	// Elapsed is wall-clock time spent simulating.
	Elapsed time.Duration `json:"-"`
	// Err is the failure message when State is StateError.
	Err string `json:"error,omitempty"`
}
