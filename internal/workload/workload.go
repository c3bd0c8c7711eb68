// Package workload defines the simulator's benchmark suites: synthetic
// stand-ins for the 29 applications of the paper's evaluation (SPEC
// CPU2006, PARSEC, and MobileBench's Realistic General Web Browsing set).
//
// The real benchmark binaries, their inputs, and the Android browser stack
// are not reproducible here, so each benchmark is a generated guest
// program calibrated to the application properties that drive PowerChop's
// results (Figures 1-3):
//
//   - vector-operation intensity and its phase structure (VPU criticality),
//   - branch predictability mix — biased/random branches that a small
//     bimodal predictor handles vs patterned/correlated branches that need
//     the tournament predictor (BPU criticality),
//   - working-set size relative to the L1 and the MLC, and streaming vs
//     reuse access patterns (MLC criticality),
//   - the mobile suite's higher branch density (≈1 branch per 7
//     instructions vs ≈1 per 20 for SPEC, Section III-B).
//
// Phase durations are expressed in execution windows of 1000 translations
// (the paper's window size) so that each phase spans tens of windows, as
// the applications' phases do at the paper's scale.
package workload

import (
	"fmt"
	"sort"

	"powerchop/internal/program"
)

// Suite names.
const (
	SPECInt     = "SPEC-INT"
	SPECFP      = "SPEC-FP"
	PARSEC      = "PARSEC"
	MobileBench = "MobileBench"
)

// Benchmark is a named, lazily-built guest program.
type Benchmark struct {
	// Name is the benchmark name as the paper uses it (e.g. "gobmk").
	Name string
	// Suite is the owning suite.
	Suite string
	// Mobile reports whether the benchmark targets the mobile design
	// point (MobileBench) rather than the server one.
	Mobile bool
	// build constructs the program.
	build func() (*program.Program, error)
}

// Build constructs the benchmark's guest program. Programs are
// deterministic: every call returns an identical program.
func (b Benchmark) Build() (*program.Program, error) {
	if b.build == nil {
		return nil, fmt.Errorf("workload %s: no program generator (not a registered benchmark)", b.Name)
	}
	p, err := b.build()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	return p, nil
}

// MustBuild is a helper for tests, examples and benchmarks.
func (b Benchmark) MustBuild() *program.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// registry holds all benchmarks in definition order.
var registry []Benchmark

func register(b Benchmark) {
	registry = append(registry, b)
}

// All returns every benchmark, SPEC-INT first, then SPEC-FP, PARSEC and
// MobileBench, in the paper's listing order.
func All() []Benchmark {
	return append([]Benchmark(nil), registry...)
}

// BySuite returns the benchmarks of one suite.
func BySuite(suite string) []Benchmark {
	var out []Benchmark
	for _, b := range registry {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names returns all benchmark names in registry order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	return out
}

// Suites returns the suite names in canonical order.
func Suites() []string {
	return []string{SPECInt, SPECFP, PARSEC, MobileBench}
}

// ServerSuite returns the benchmarks evaluated on the server design point
// (SPEC CPU2006 and PARSEC).
func ServerSuite() []Benchmark {
	return append(BySuite(SPECInt), append(BySuite(SPECFP), BySuite(PARSEC)...)...)
}

// MobileSuite returns the benchmarks evaluated on the mobile design point.
func MobileSuite() []Benchmark { return BySuite(MobileBench) }

// seedFor derives a stable per-benchmark seed from its name.
func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// sortedCopy returns benchmarks sorted by name (reporting helpers).
func sortedCopy(bs []Benchmark) []Benchmark {
	out := append([]Benchmark(nil), bs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
