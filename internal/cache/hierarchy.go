package cache

import "fmt"

// HierarchyConfig describes the modelled memory system: L1, MLC and the
// flat latencies to each level. L1 hits are fully pipelined (no stall);
// an L1 miss that hits the MLC stalls for MLCLatency cycles; an MLC miss
// stalls for MemLatency cycles. A dirty L1 victim is written back into
// the MLC, off the critical path, before the miss looks the MLC up. The
// simulator's front-end drives the L1 and hands its misses to each MLC
// through ServeMisses (internal/sim).
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

// Outcome bits of one memory op's path through the hierarchy. An op
// whose L1 hit has outcome 0.
const (
	L1Miss = 1 << 0 // the L1 missed, so the op accessed the MLC
	MLCHit = 1 << 1 // the op's MLC lookup hit
)

// Stall returns the cycles a memory op with outcome bits o stalls
// execution: none on an L1 hit, MLCLatency on an MLC hit and MemLatency
// on an MLC miss.
func (c HierarchyConfig) Stall(o uint8) float64 {
	switch {
	case o&L1Miss == 0:
		return 0
	case o&MLCHit != 0:
		return c.MLCLatency
	}
	return c.MemLatency
}

// Miss is one memory op the L1 passed to the MLC: the dirty L1 victim's
// writeback into the MLC (when WB) and then the lookup of Addr, in that
// order.
type Miss struct {
	At     int // index of the op among the memory ops being recorded
	WB     bool
	Victim uint64
	Addr   uint64
}

// ServeMisses drives c, as the MLC, through L1 misses in op order. Each
// dirty victim is written back into c, off the critical path, before its
// miss looks c up; a lookup that hits sets MLCHit in out[m.At]. The MLC
// services every L1 miss whatever its gating state: way gating leaves at
// least one way powered.
func (c *Cache) ServeMisses(misses []Miss, out []uint8) {
	for i := range misses {
		m := &misses[i]
		if m.WB {
			c.Access(m.Victim, true)
		}
		if hit, _, _ := c.Access(m.Addr, false); hit {
			out[m.At] |= MLCHit
		}
	}
}
