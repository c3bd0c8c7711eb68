// Package sim is the trace-driven timing simulator for the hybrid core:
// the stand-in for the paper's gem5 environment.
//
// A run executes a synthetic guest program through the BT layer
// (interpreter → translator → region cache), models each instruction's
// cost against the core's units (issue bandwidth, BPU mispredicts, cache
// hierarchy stalls, VPU issue or scalar emulation), drives PowerChop's
// phase machinery (HTB windows → manager directives → gating transitions
// with their stall/state costs), and accounts energy per unit. The
// simulator is cycle-accounting rather than cycle-accurate: it captures
// the relative costs that determine unit criticality — mispredict
// penalties, MLC/memory latencies, emulation expansion, gating overheads —
// which is the fidelity the paper's results depend on.
//
// Structurally every run is one lane of a batch group (batch.go): a
// shared front-end walks the program once and simulates the caches and
// predictors, and each lane's engine (engine.go) prices the instructions
// from the front-end's outcomes. The engine orchestrates one managedUnit
// component per gateable unit (unit.go): it owns the clock, the issue
// pipeline and the window machinery (window.go), while each unit owns
// its gating tracker, policy enactment, per-window and whole-run
// counters, dynamic-access tallies and its slice of the Result. Adding a
// fourth managed unit means writing one component, not editing the
// engine loop.
package sim

import (
	"context"
	"fmt"

	"powerchop/internal/arch"
	"powerchop/internal/bt"
	"powerchop/internal/cde"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/obs/audit"
	"powerchop/internal/phase"
	"powerchop/internal/power"
	"powerchop/internal/program"
	"powerchop/internal/pvt"
)

// Config parameterizes one simulation run.
type Config struct {
	// Context, when non-nil, carries request-scoped observability: if it
	// holds a span (internal/obs/span), the run's lane group executes
	// under a child span recording its wall-clock duration: "sim" for a
	// group of one lane, "simbatch" for a wider one. The simulation
	// itself never consults the context — runs are not cancellable
	// mid-flight and their results never depend on it.
	Context context.Context
	// Design is the processor design point.
	Design arch.Design
	// Manager is the power manager under test.
	Manager core.Manager
	// Phase is the HTB configuration (defaults to the paper's).
	Phase phase.Config
	// MaxTranslations is the run length in region executions.
	MaxTranslations uint64
	// SampleInterval, when positive, records a Sample every that many
	// guest instructions (for the time-series figures).
	SampleInterval uint64
	// TrackQuality enables the Figure 8 signature-quality tracker.
	TrackQuality bool
	// Tracer, when non-nil, receives the run's event stream: window
	// closes, PVT and CDE activity, gating transitions and translation
	// installs, each stamped with the simulated cycle and window count.
	// A nil Tracer keeps the hot path free of observability work.
	Tracer obs.Tracer
	// Metrics, when true, distills the event stream into the standard
	// metrics registry (counters and histograms) and attaches the
	// snapshot to Result.Metrics.
	Metrics bool
	// Audit, when true, attaches a decision-provenance auditor to the
	// event stream and attaches its Trail — per-decision records and the
	// per-phase energy attribution table — to Result.Audit. Like Tracer
	// and Metrics it is a pure observer: the simulated results are
	// bit-identical with or without it. When Metrics is also set the
	// audit histograms register in the collector's registry.
	Audit bool
	// Progress, when non-nil, is called at every window boundary and once
	// at the end of the run. It is a pure observer: it sees the engine's
	// counters but charges no cycles, so a run with a Progress callback is
	// bit-identical to one without.
	Progress func(Progress)
}

// Progress is a point-in-time view of a running simulation, delivered to
// Config.Progress at window boundaries.
type Progress struct {
	// Cycle is the current simulated cycle.
	Cycle float64
	// GuestInsns is the cumulative guest instruction count.
	GuestInsns uint64
	// Translations is the number of region executions so far.
	Translations uint64
	// MaxTranslations is the run's translation budget.
	MaxTranslations uint64
	// Windows is the number of closed HTB windows.
	Windows uint64
	// Done is true on the final report, after the run completes.
	Done bool
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Design.Validate(); err != nil {
		return err
	}
	if c.Manager == nil {
		return fmt.Errorf("sim: nil manager")
	}
	if err := c.Phase.Validate(); err != nil {
		return err
	}
	if c.MaxTranslations == 0 {
		return fmt.Errorf("sim: zero run length")
	}
	return nil
}

// Sample is one time-series point.
type Sample struct {
	// Insns is the cumulative guest instruction count at the sample.
	Insns uint64
	// IPC is guest instructions per cycle over the sample interval.
	IPC float64
	// VectorOps is the number of vector instructions in the interval.
	VectorOps uint64
	// MLCHits is the number of MLC hits in the interval.
	MLCHits uint64
}

// VectorShards buckets 1000-instruction execution shards by vector-op
// count, the paper's Figure 15 histogram.
type VectorShards struct {
	Zero       uint64 // V = 0
	OneToFour  uint64 // 0 < V <= 4
	UpToTwenty uint64 // 4 < V <= 20
	Above      uint64 // V > 20
}

// Total returns the shard count.
func (v VectorShards) Total() uint64 {
	return v.Zero + v.OneToFour + v.UpToTwenty + v.Above
}

// UnitActivity summarizes one gated unit's run.
type UnitActivity struct {
	// GatedFrac is the fraction of cycles spent below full power.
	GatedFrac float64
	// OneWayFrac is the fraction of cycles at the deepest state (MLC
	// one-way; for VPU/BPU it equals GatedFrac).
	OneWayFrac float64
	// HalfFrac is the fraction of cycles at the MLC half-ways state.
	HalfFrac float64
	// SwitchesPerM is gating transitions per million cycles (Figure 11).
	SwitchesPerM float64
	// Switches is the absolute transition count.
	Switches uint64
}

// Result is a completed run's measurements.
type Result struct {
	Benchmark string
	Suite     string
	Arch      string
	Manager   string

	Cycles     float64
	GuestInsns uint64
	Uops       uint64
	IPC        float64
	Seconds    float64

	VPU UnitActivity
	BPU UnitActivity
	MLC UnitActivity

	Power power.Report

	Branches    uint64
	Mispredicts uint64
	VectorOps   uint64 // guest vector instructions
	MemOps      uint64
	MLCHits     uint64
	MLCAccesses uint64

	BT          bt.Stats
	PVT         pvt.Stats
	CDE         cde.Stats
	KnownPhases int // phases with computed CDE policies (PowerChop only)
	PVTMissInts uint64
	CDECycles   float64
	GateStalls  float64 // total cycles stalled on gating transitions
	Windows     uint64

	Samples []Sample
	Shards  VectorShards

	QualityMeanFrac float64
	QualityMaxFrac  float64
	QualityPhases   int
	QualityCompared uint64

	// Metrics is the observability snapshot, present when
	// Config.Metrics was set.
	Metrics *obs.Snapshot

	// Audit is the decision-provenance trail, present when Config.Audit
	// was set.
	Audit *audit.Trail
}

// MispredictRate returns mispredicts per branch.
func (r *Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// Run executes the program under the configuration and returns the
// measurements. It is RunBatch with one lane: the lane's group walks the
// program and drives its units exactly as a wider group drives each of
// its lanes.
func Run(p *program.Program, cfg Config) (*Result, error) {
	if err := cfg.prepare(); err != nil {
		return nil, err
	}
	results, err := runBatch(p, []Config{cfg})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// prepare fills the default phase configuration and validates.
func (c *Config) prepare() error {
	if c.Phase == (phase.Config{}) {
		c.Phase = phase.DefaultConfig()
	}
	return c.Validate()
}
