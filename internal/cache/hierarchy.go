package cache

import "fmt"

// HierarchyConfig describes the modelled memory system: L1, MLC and the
// flat latencies to each level. L1 hits are fully pipelined (no stall);
// an L1 miss that hits the MLC stalls for MLCLatency cycles; an MLC miss
// stalls for MemLatency cycles.
type HierarchyConfig struct {
	L1         Config
	MLC        Config
	MLCLatency float64 // cycles of stall for an L1-miss/MLC-hit
	MemLatency float64 // cycles of stall for an MLC miss
}

// Validate reports an error for inconsistent configurations.
func (c HierarchyConfig) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := c.MLC.Validate(); err != nil {
		return fmt.Errorf("MLC: %w", err)
	}
	if c.MLCLatency < 0 || c.MemLatency < c.MLCLatency {
		return fmt.Errorf("cache: latencies MLC=%v mem=%v are inconsistent", c.MLCLatency, c.MemLatency)
	}
	return nil
}

// AccessResult describes one memory operation's journey through the
// hierarchy.
type AccessResult struct {
	StallCycles float64
	L1Hit       bool
	MLCAccessed bool
	MLCHit      bool
	MemAccessed bool
	Writebacks  int // dirty evictions triggered anywhere in the hierarchy
}

// Hierarchy is the two-level cache model in front of main memory.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *Cache
	mlc *Cache

	memReads  uint64
	memWrites uint64
}

// NewHierarchy builds the hierarchy. It panics on invalid configuration;
// use HierarchyConfig.Validate to check first.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{cfg: cfg, l1: New(cfg.L1), mlc: New(cfg.MLC)}
}

// L1 returns the level-1 cache.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// MLC returns the middle-level cache.
func (h *Hierarchy) MLC() *Cache { return h.mlc }

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// MemReads and MemWrites expose main-memory traffic counters.
func (h *Hierarchy) MemReads() uint64  { return h.memReads }
func (h *Hierarchy) MemWrites() uint64 { return h.memWrites }

// Access performs one load (write=false) or store (write=true).
func (h *Hierarchy) Access(addr uint64, write bool) AccessResult {
	var r AccessResult
	hit, wb, victim := h.l1.Access(addr, write)
	r.L1Hit = hit
	if wb {
		// The L1 victim's dirty data is written back into the MLC.
		// Writeback bandwidth is off the critical path; we count the
		// event (for energy) without stalling execution.
		r.Writebacks++
		if _, wb2, _ := h.mlc.Access(victim, true); wb2 {
			// A displaced dirty MLC line goes to memory.
			r.Writebacks++
			h.memWrites++
		}
		r.MLCAccessed = true
	}
	if hit {
		return r
	}
	// L1 miss: look up the MLC (it services every L1 miss, whatever its
	// gating state — way gating leaves at least one way powered).
	mlcHit, mlcWB, _ := h.mlc.Access(addr, false)
	r.MLCAccessed = true
	r.MLCHit = mlcHit
	if mlcWB {
		r.Writebacks++
		h.memWrites++
	}
	if mlcHit {
		r.StallCycles = h.cfg.MLCLatency
		return r
	}
	r.MemAccessed = true
	h.memReads++
	r.StallCycles = h.cfg.MemLatency
	return r
}

// ReplayAccess performs one memory operation whose L1 outcome was resolved
// elsewhere. The L1 is a write-back cache in front of the gateable MLC, so
// its hit/writeback/victim sequence for a given address stream is the same
// whatever the MLC's gating state; a batched sweep resolves that sequence
// once on a shared L1 and replays it into each lane's hierarchy here. Only
// the MLC (whose contents diverge under way gating) and the memory-traffic
// counters are touched, in exactly the order Access would touch them, so a
// replayed hierarchy is byte-identical to one driven through Access.
func (h *Hierarchy) ReplayAccess(addr uint64, l1Hit, l1WB bool, victim uint64) AccessResult {
	var r AccessResult
	r.L1Hit = l1Hit
	if l1WB {
		r.Writebacks++
		if _, wb2, _ := h.mlc.Access(victim, true); wb2 {
			r.Writebacks++
			h.memWrites++
		}
		r.MLCAccessed = true
	}
	if l1Hit {
		return r
	}
	mlcHit, mlcWB, _ := h.mlc.Access(addr, false)
	r.MLCAccessed = true
	r.MLCHit = mlcHit
	if mlcWB {
		r.Writebacks++
		h.memWrites++
	}
	if mlcHit {
		r.StallCycles = h.cfg.MLCLatency
		return r
	}
	r.MemAccessed = true
	h.memReads++
	r.StallCycles = h.cfg.MemLatency
	return r
}

// NewReplayHierarchy builds a hierarchy around a pre-warmed MLC, with the
// main-memory traffic counters at the values accumulated while that MLC
// was simulated elsewhere. Batched sweeps build one when a lane first
// gates: until then the lane's MLC contents are those of the shared
// never-gated reference, so the lane forks a clone of that reference and
// continues through ReplayAccess on its own copy. The lane's L1 outcomes
// come from the shared front-end, so the hierarchy has no L1 of its own:
// it serves ReplayAccess, GateMLC and MLC, never Access or L1. The cache
// must have the configured MLC geometry.
func NewReplayHierarchy(cfg HierarchyConfig, mlc *Cache, memReads, memWrites uint64) *Hierarchy {
	if mlc.Config() != cfg.MLC {
		panic(fmt.Sprintf("cache: adopted MLC geometry %+v does not match configured %+v", mlc.Config(), cfg.MLC))
	}
	return &Hierarchy{cfg: cfg, mlc: mlc, memReads: memReads, memWrites: memWrites}
}

// GateMLC applies a way-gating state to the MLC and returns the number of
// dirty lines flushed (to be charged by the caller as writeback time and
// energy) — the "WB dirty lines, lose clean lines, rewarm" cost of Table I.
func (h *Hierarchy) GateMLC(ways int) (dirtyFlushed int) {
	n := h.mlc.SetActiveWays(ways)
	h.memWrites += uint64(n)
	return n
}
