package experiments

import "time"

// RunState is where a (benchmark, manager key) run is in its lifecycle.
type RunState string

const (
	// RunQueued means the run is registered but not yet holding a job
	// slot.
	RunQueued RunState = "queued"
	// RunSimulating means the run holds a slot and is executing.
	RunSimulating RunState = "simulating"
	// RunDone means the run completed and its result is cached.
	RunDone RunState = "done"
	// RunError means the run failed (the flight is dropped for retry).
	RunError RunState = "error"
)

// RunUpdate is one progress report about a run. During simulation the
// cycle/translation counters advance window by window; Elapsed and Err
// are set on the terminal states.
type RunUpdate struct {
	Benchmark string
	// Kind is the lane's manager key: a policy fingerprint such as
	// "full-power{}", or a study-only setup such as "powerchop-vpu".
	Kind         string
	State        RunState
	Cycles       float64
	Translations uint64
	Total        uint64 // translation budget
	Windows      uint64
	Elapsed      time.Duration
	Err          error
}

// ProgressSink receives run lifecycle updates from a Runner. Updates for
// different runs arrive concurrently (one goroutine per in-flight
// simulation), so implementations must be safe for concurrent use. The
// sink is a pure observer: it cannot influence scheduling or results.
type ProgressSink interface {
	RunUpdate(RunUpdate)
}

// ProgressFunc adapts a function to the ProgressSink interface.
type ProgressFunc func(RunUpdate)

// RunUpdate implements ProgressSink.
func (f ProgressFunc) RunUpdate(u RunUpdate) { f(u) }

// report delivers an update to the runner's sink, if any.
func (r *Runner) report(u RunUpdate) {
	if r.Progress != nil {
		r.Progress.RunUpdate(u)
	}
}
