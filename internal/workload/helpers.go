package workload

import (
	"powerchop/internal/isa"
	"powerchop/internal/program"
)

// windowTranslations is the paper's execution-window size; phase durations
// below are given in windows.
const windowTranslations = 1000

// phaseScale stretches every phase so that gating transients (profiling,
// switch stalls, cache rewarm) stay small relative to phase length, as
// they are at the paper's SimPoint scale where phases span billions of
// instructions.
const phaseScale = 3

// w converts a duration in execution windows to translations.
func w(windows int) int { return windows * phaseScale * windowTranslations }

// Working-set presets relative to the design points' 32KB L1 and 1-2MB MLC.
const (
	wsL1       = 20 << 10  // fits the L1: the MLC sees almost nothing
	wsL1Spill  = 44 << 10  // slightly exceeds the L1: rare MLC hits (half-ways band)
	wsMLC      = 640 << 10 // fits the MLC, far exceeds the L1: MLC critical
	wsMLCSmall = 360 << 10 // fits even half the server MLC
	wsHuge     = 96 << 20  // streaming footprint: no cache holds it
)

// Branch model constructors.

// biased returns a branch taken with probability p; any predictor learns
// it, so the large BPU is non-critical.
func biased(p float64) program.BranchModel {
	return program.BranchModel{Kind: program.Biased, Bias: p}
}

// noisyBiased returns a biased branch whose outcome flips with probability
// noise, bounding every predictor's accuracy.
func noisyBiased(p, noise float64) program.BranchModel {
	return program.BranchModel{Kind: program.Biased, Bias: p, Noise: noise}
}

// patterned returns a branch repeating the given outcome string
// ('T' = taken); the tournament's history-based components learn it, a
// bimodal counter cannot.
func patterned(pattern string) program.BranchModel {
	outcomes := make([]bool, len(pattern))
	for i := 0; i < len(pattern); i++ {
		outcomes[i] = pattern[i] == 'T'
	}
	return program.BranchModel{Kind: program.Patterned, Pattern: outcomes}
}

// correlated returns a branch whose outcome is the parity of the last
// depth global outcomes; only the tournament's global component tracks it.
func correlated(depth int) program.BranchModel {
	return program.BranchModel{Kind: program.Correlated, CorrDepth: depth}
}

// random returns an unpredictable branch.
func random() program.BranchModel {
	return program.BranchModel{Kind: program.Random}
}

// Memory stream constructors.

// resident returns a reuse-heavy stream over a working set of ws bytes
// (uniform random accesses).
func resident(ws uint64) program.MemStream {
	return program.MemStream{WorkingSet: ws}
}

// streaming returns a sequential word-by-word walk over a huge footprint:
// each 64-byte line is touched for eight consecutive accesses and never
// revisited, so the L1 absorbs the spatial locality and the MLC retains
// nothing useful.
func streaming(ws uint64) program.MemStream {
	return program.MemStream{WorkingSet: ws, Stride: 8}
}

// regionOpts tunes the generic region constructors.
type regionOpts struct {
	name     string
	insns    int
	vec      float64
	branch   float64
	load     float64
	store    float64
	branches []program.BranchModel
	streams  []program.MemStream
}

// addRegion declares a region on the builder from the options.
func addRegion(b *program.Builder, o regionOpts) int {
	if o.insns == 0 {
		o.insns = 32
	}
	return b.Region(program.RegionSpec{
		Name:  o.name,
		Insns: o.insns,
		Mix: isa.Mix{
			VectorFrac: o.vec,
			BranchFrac: o.branch,
			LoadFrac:   o.load,
			StoreFrac:  o.store,
		},
		Branches: o.branches,
		Streams:  o.streams,
	})
}

// sparseVector declares a region pair that issues vector operations at a
// per-instruction rate too low to represent inside a single region body
// (one op per several bodies): a scalar base region plus a variant carrying
// exactly one vector op, mixed by phase weight. The returned weight map
// realizes the requested rate while spreading the vector ops uniformly
// across translations — the "scarce but nonzero" pattern of Figure 1 that
// defeats timeout-based gating (Section V-E).
func sparseVector(b *program.Builder, o regionOpts, rate float64) map[int]float64 {
	if o.insns == 0 {
		o.insns = 32
	}
	// Both variants must touch the same data, not two disjoint copies of
	// the working set.
	shared := uint32(seedFor(o.name)>>40) | 1
	streams := append([]program.MemStream(nil), o.streams...)
	for i := range streams {
		streams[i].SharedID = shared
	}
	o.streams = streams

	base := o
	base.vec = 0
	baseIdx := addRegion(b, base)

	simd := o
	simd.name = o.name + "-simd"
	simd.vec = 1 / float64(o.insns) // exactly one vector op per body
	simdIdx := addRegion(b, simd)

	wSimd := rate * float64(o.insns)
	if wSimd > 1 {
		wSimd = 1
	}
	return map[int]float64{baseIdx: 1 - wSimd, simdIdx: wSimd}
}

// scaleWeights multiplies every weight by f (composing sparseVector pairs
// into multi-region phases).
func scaleWeights(m map[int]float64, f float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v * f
	}
	return out
}

// mergeWeights sums weight maps into one phase weight map.
func mergeWeights(ms ...map[int]float64) map[int]float64 {
	out := map[int]float64{}
	for _, m := range ms {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// Branch-density presets: SPEC averages about 1 branch in 20 instructions,
// mobile web browsing about 1 in 7 (Section III-B / V-E).
const (
	specBranchFrac   = 0.05
	mobileBranchFrac = 0.14
)

// easyBranches is a predictable server-code mix: strongly biased loop
// branches. The small predictor matches the tournament on these.
func easyBranches() []program.BranchModel {
	return []program.BranchModel{biased(0.97), biased(0.92), biased(0.04)}
}

// hardBranches is a mix only the tournament handles: history patterns and
// global correlation.
func hardBranches() []program.BranchModel {
	return []program.BranchModel{
		patterned("TTNTNNTT"),
		correlated(5),
		biased(0.9),
	}
}

// mediumBranches mixes a patterned branch into mostly biased ones: the
// tournament helps, moderately.
func mediumBranches() []program.BranchModel {
	return []program.BranchModel{
		patterned("TTTN"),
		biased(0.95),
		biased(0.88),
	}
}

// loopBranches is a numeric-kernel mix whose first (and often only
// instantiated) site is history-patterned, keeping the tournament
// predictor clearly ahead of the bimodal fallback.
func loopBranches() []program.BranchModel {
	return []program.BranchModel{patterned("TTTTTN"), biased(0.97)}
}
