package powerchop

import (
	"context"
	"fmt"

	"powerchop/internal/isa"
	"powerchop/internal/program"
	"powerchop/internal/workload"
)

// Workload describes a custom guest program for the simulator: a set of
// code regions (loop bodies with behaviour models) and a cyclic phase
// schedule over them. It is the public mirror of the internal program
// model, letting downstream users evaluate PowerChop on their own phase
// behaviours.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Regions are the workload's code regions.
	Regions []Region
	// Phases is the cyclic schedule. Phase durations are in region
	// executions ("translations"); PowerChop's execution window is 1000.
	Phases []WorkloadPhase
	// Seed selects the deterministic random streams (0 uses a default).
	Seed uint64
}

// Region is one code region of a custom workload.
type Region struct {
	// Name labels the region.
	Name string
	// Instructions is the body length (default 32).
	Instructions int
	// VectorFrac, BranchFrac, LoadFrac, StoreFrac give the instruction
	// mix; the remainder is scalar ALU work.
	VectorFrac, BranchFrac, LoadFrac, StoreFrac float64
	// Branches are the branch behaviour models, assigned round-robin to
	// the region's branch instructions.
	Branches []Branch
	// Streams are the memory behaviours, assigned round-robin to the
	// region's loads and stores.
	Streams []Stream
}

// BranchKind selects a branch behaviour.
type BranchKind string

// Branch behaviour kinds.
const (
	// BranchBiased is taken with probability Bias — predictable by any
	// predictor, so the large BPU is non-critical.
	BranchBiased BranchKind = "biased"
	// BranchPatterned repeats Pattern ('T'/'N') — only history-based
	// predictors learn it, so the large BPU is critical.
	BranchPatterned BranchKind = "patterned"
	// BranchCorrelated follows the parity of the last Depth global
	// outcomes — only the tournament's global component tracks it.
	BranchCorrelated BranchKind = "correlated"
	// BranchRandom is unpredictable.
	BranchRandom BranchKind = "random"
)

// Branch is one branch site's behaviour.
type Branch struct {
	Kind    BranchKind
	Bias    float64 // BranchBiased: P(taken)
	Pattern string  // BranchPatterned: e.g. "TTNTNN"
	Depth   int     // BranchCorrelated: history depth
	Noise   float64 // probability of flipping the modelled outcome
}

// Stream is one memory stream's behaviour.
type Stream struct {
	// WorkingSetBytes is the footprint. Whether it fits the 32KB L1, the
	// 1-2MB MLC, or neither determines MLC criticality.
	WorkingSetBytes uint64
	// StrideBytes selects a sequential walk; zero selects uniform-random
	// reuse within the working set.
	StrideBytes uint64
}

// WorkloadPhase is one period of the schedule.
type WorkloadPhase struct {
	// Name labels the phase.
	Name string
	// Translations is the duration in region executions.
	Translations int
	// Weights maps region index → relative execution frequency.
	Weights map[int]float64
}

// compile converts the public workload into the internal program model.
func (w *Workload) compile() (*program.Program, error) {
	if w.Name == "" {
		return nil, fmt.Errorf("powerchop: workload needs a name")
	}
	seed := w.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	b := program.NewBuilder(w.Name, "custom", seed)
	for _, reg := range w.Regions {
		insns := reg.Instructions
		if insns == 0 {
			insns = 32
		}
		var branches []program.BranchModel
		for _, br := range reg.Branches {
			m, err := br.compile()
			if err != nil {
				return nil, fmt.Errorf("powerchop: region %q: %w", reg.Name, err)
			}
			branches = append(branches, m)
		}
		var streams []program.MemStream
		for _, st := range reg.Streams {
			streams = append(streams, program.MemStream{
				WorkingSet: st.WorkingSetBytes,
				Stride:     st.StrideBytes,
			})
		}
		b.Region(program.RegionSpec{
			Name:  reg.Name,
			Insns: insns,
			Mix: isa.Mix{
				VectorFrac: reg.VectorFrac,
				BranchFrac: reg.BranchFrac,
				LoadFrac:   reg.LoadFrac,
				StoreFrac:  reg.StoreFrac,
			},
			Branches: branches,
			Streams:  streams,
		})
	}
	for _, ph := range w.Phases {
		b.Phase(ph.Name, ph.Translations, ph.Weights)
	}
	return b.Build()
}

// compile converts a public branch model.
func (br Branch) compile() (program.BranchModel, error) {
	m := program.BranchModel{Noise: br.Noise}
	switch br.Kind {
	case BranchBiased, "":
		m.Kind = program.Biased
		m.Bias = br.Bias
	case BranchPatterned:
		m.Kind = program.Patterned
		for i := 0; i < len(br.Pattern); i++ {
			m.Pattern = append(m.Pattern, br.Pattern[i] == 'T')
		}
	case BranchCorrelated:
		m.Kind = program.Correlated
		m.CorrDepth = br.Depth
	case BranchRandom:
		m.Kind = program.Random
	default:
		return m, fmt.Errorf("unknown branch kind %q", br.Kind)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// RunWorkload simulates a custom workload under the options. Arch defaults
// to the server design point.
func RunWorkload(w *Workload, opts Options) (*Report, error) {
	p, err := w.compile()
	if err != nil {
		return nil, err
	}
	if opts.Arch == ArchAuto {
		opts.Arch = ArchServer
	}
	return runOne(context.Background(), p, workload.Benchmark{Name: w.Name, Suite: "custom"}, opts)
}
