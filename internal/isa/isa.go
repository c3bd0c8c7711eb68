// Package isa defines the synthetic guest instruction set used by the
// simulated hybrid processor.
//
// PowerChop never depends on instruction semantics — only on instruction
// *classes* (scalar ALU work, SIMD work bound for the VPU, branches bound
// for the BPU, and memory operations that exercise the cache hierarchy).
// The guest ISA is therefore a compact classification scheme plus the
// static metadata each class needs (branch behaviour selectors, memory
// stream selectors), standing in for the ARMv8/x86 guest ISAs of the
// paper's hybrid designs.
package isa

import "fmt"

// Kind classifies a guest instruction by the core unit it exercises.
type Kind uint8

const (
	// Scalar is an integer/FP ALU operation executed by the scalar pipeline.
	Scalar Kind = iota
	// Vector is a SIMD operation bound for the VPU (SSE/AVX/NEON analog).
	Vector
	// Branch is a conditional branch resolved by the BPU.
	Branch
	// Load reads memory through the cache hierarchy.
	Load
	// Store writes memory through the cache hierarchy.
	Store
	numKinds
)

// NumKinds is the number of distinct instruction kinds.
const NumKinds = int(numKinds)

// String returns the mnemonic class name.
func (k Kind) String() string {
	switch k {
	case Scalar:
		return "scalar"
	case Vector:
		return "vector"
	case Branch:
		return "branch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Valid reports whether k is one of the defined instruction kinds.
func (k Kind) Valid() bool { return k < numKinds }

// Inst is a static guest instruction within a code region's body. The
// dynamic behaviour (branch outcome, effective address) is produced by the
// program model at execution time; Inst carries only the static selectors.
type Inst struct {
	// PC is the guest program counter of the instruction. PCs are unique
	// across a program; the PC of a region's first instruction (the
	// translation head) identifies the region's translation.
	PC uint32
	// Kind is the instruction class.
	Kind Kind
	// Sel selects the behaviour model within the owning region: for
	// Branch instructions it indexes the region's branch models, for
	// Load/Store it indexes the region's memory streams. Unused otherwise.
	Sel uint8
}

// String renders the instruction for debugging.
func (i Inst) String() string {
	return fmt.Sprintf("%08x:%s/%d", i.PC, i.Kind, i.Sel)
}

// Mix describes the class composition of a block of instructions. All
// fractions are of total instructions and must sum to at most 1; the
// remainder is scalar ALU work.
type Mix struct {
	VectorFrac float64 // fraction of Vector instructions
	BranchFrac float64 // fraction of Branch instructions
	LoadFrac   float64 // fraction of Load instructions
	StoreFrac  float64 // fraction of Store instructions
}

// Validate reports an error if the mix is not a valid composition.
func (m Mix) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"VectorFrac", m.VectorFrac},
		{"BranchFrac", m.BranchFrac},
		{"LoadFrac", m.LoadFrac},
		{"StoreFrac", m.StoreFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("isa: %s = %v out of [0,1]", f.name, f.v)
		}
	}
	if s := m.VectorFrac + m.BranchFrac + m.LoadFrac + m.StoreFrac; s > 1+1e-9 {
		return fmt.Errorf("isa: mix fractions sum to %v > 1", s)
	}
	return nil
}

// ScalarFrac returns the implied scalar fraction of the mix.
func (m Mix) ScalarFrac() float64 {
	s := 1 - m.VectorFrac - m.BranchFrac - m.LoadFrac - m.StoreFrac
	if s < 0 {
		return 0
	}
	return s
}
