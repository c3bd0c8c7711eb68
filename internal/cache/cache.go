// Package cache implements the simulated core's cache hierarchy: a private
// L1 data cache and the middle-level cache (MLC) that PowerChop way-gates.
//
// The MLC supports three power states matching the paper's policy encoding
// (all ways / half the ways / a single way). Way-gating shrinks both
// associativity and capacity — the server's 1024KB 8-way MLC becomes 512KB
// 4-way or 128KB 1-way — and deactivated ways lose their contents: dirty
// lines are written back to the next level, clean lines are dropped, and
// the surviving cache must re-warm, exactly the state management the paper
// charges to MLC gating transitions.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes a single cache.
type Config struct {
	SizeBytes int // total capacity with all ways active
	Ways      int // associativity (power of two)
	LineBytes int // line size (power of two)
}

// Validate reports an error for inconsistent geometry.
func (c Config) Validate() error {
	if c.Ways <= 0 || c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: ways = %d is not a positive power of two", c.Ways)
	}
	if c.Ways > 8 {
		// The per-set recency stack packs 3-bit way indices into one
		// word; 8 ways also matches the highest associativity of any
		// modelled design.
		return fmt.Errorf("cache: ways = %d exceeds the supported maximum of 8", c.Ways)
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size = %d is not a positive power of two", c.LineBytes)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache: size %d is not a multiple of ways*line (%d)", c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Ways * c.LineBytes) }

// Each line is a single packed word — tag<<lineTagShift | dirty | valid —
// so a whole 8-way set occupies one 64-byte host cache line and the tag
// scan on the per-instruction hot path touches exactly one. Builder
// addresses stay below 2^62, so a tag (address sans line-offset and
// set-index bits) always fits the 62 bits above the flag pair.
//
// Recency does not live with the line: each set has a side word in
// Cache.lru holding an 8-entry × 3-bit stack of way indices ordered
// most- to least-recently used (bits 0..23) plus a per-way valid bitmask
// (bits 24..31). The side array is a few KB even for a megabyte-scale
// modelled cache, so it stays host-cache resident while the line array
// does not.
const (
	lineValid    = 1 << 0
	lineDirty    = 1 << 1
	lineTagShift = 2

	lruStackMask = 0x00ffffff // 8 × 3-bit way indices, MRU at bits 0-2
	lruValidBit  = 24         // valid mask occupies bits 24-31
	// lruInitStack encodes the identity permutation 0,1,...,7 from MRU
	// to LRU. Any permutation would do — invalid ways are filled in
	// index order via the valid mask before the stack is ever consulted,
	// and each fill promotes the way to MRU — but a fixed seed keeps the
	// state reproducible.
	lruInitStack = 0o76543210
)

// lruPromote moves way w to the MRU position of the packed stack,
// preserving the relative order of the other ways and the valid-mask
// byte. w must be present in the stack (it always is: the stack is a
// permutation of the way indices).
func lruPromote(st, w uint32) uint32 {
	stack := st & lruStackMask
	p := uint32(0)
	for ; p < 24; p += 3 {
		if stack>>p&7 == w {
			break
		}
	}
	low := stack & (1<<p - 1)
	high := stack &^ (1<<(p+3) - 1)
	return st&^lruStackMask | high | low<<3 | w
}

// Stats counts cache events since construction.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty lines evicted (by replacement or gating)
}

// HitRate returns hits/accesses, or 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement and support for way gating.
//
// Storage is one flat set-major array and the geometry (all powers of
// two, enforced by Validate) is precomputed as shifts and masks: the
// model sits on the simulator's per-instruction hot path, where an extra
// pointer chase or a 64-bit division per access is measurable.
type Cache struct {
	cfg        Config
	lines      []uint64 // sets * ways, set-major: tag<<lineTagShift | flags
	lru        []uint32 // per set: recency stack | valid mask (see above)
	ways       int      // row stride (cfg.Ways)
	activeWays int
	lineShift  uint   // log2(LineBytes)
	tagShift   uint   // log2(set count)
	setMask    uint64 // set count - 1
	clock      uint64

	// Event counters. Only the rare events are counted directly: the
	// clock ticks once per access, so Accesses (clock - resetClock) and
	// Hits (Accesses - Misses) are derived in Stats rather than paying
	// two more counter stores on the hit path.
	resetClock uint64 // clock value at the last ResetStats
	misses     uint64
	writebacks uint64
}

// New builds a cache with all ways active. It panics on invalid geometry;
// use Config.Validate to check first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:        cfg,
		lines:      make([]uint64, sets*cfg.Ways),
		lru:        make([]uint32, sets),
		ways:       cfg.Ways,
		activeWays: cfg.Ways,
		lineShift:  log2(cfg.LineBytes),
		tagShift:   log2(sets),
		setMask:    uint64(sets - 1),
	}
	for i := range c.lru {
		c.lru[i] = lruInitStack
	}
	return c
}

// log2 of a positive power of two.
func log2(n int) uint {
	s := uint(0)
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// ActiveWays returns the number of currently powered ways.
func (c *Cache) ActiveWays() int { return c.activeWays }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats {
	acc := c.clock - c.resetClock
	return Stats{
		Accesses:   acc,
		Hits:       acc - c.misses,
		Misses:     c.misses,
		Writebacks: c.writebacks,
	}
}

// Clone returns a deep copy of the cache: contents, recency state, gating
// state and event counters. Batched sweeps clone a shared MLC when one of
// the lanes sharing it gates its ways.
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = append([]uint64(nil), c.lines...)
	d.lru = append([]uint32(nil), c.lru...)
	return &d
}

// ResetStats zeroes the event counters (contents are untouched).
func (c *Cache) ResetStats() {
	c.resetClock = c.clock
	c.misses = 0
	c.writebacks = 0
}

func (c *Cache) split(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	set = int(lineAddr & c.setMask)
	tag = lineAddr >> c.tagShift
	return
}

// lineAddr reconstructs a line's base address from its set and tag.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return (tag<<c.tagShift | uint64(set)) << c.lineShift
}

// Access performs a read (write=false) or write (write=true) of addr.
// It returns whether the access hit; on a miss that evicts a dirty victim,
// wroteBack is true and victimAddr is the victim line's base address,
// which the caller must write back to the next level.
func (c *Cache) Access(addr uint64, write bool) (hit, wroteBack bool, victimAddr uint64) {
	c.clock++
	set, tag := c.split(addr)
	base := set * c.ways
	ways := c.lines[base : base+c.activeWays]

	// wbit is the dirty bit this access contributes, hoisted so the hit
	// and allocate paths below stay branch-free. want is the packed word
	// a hit must match once its dirty bit is masked off.
	wbit := uint64(0)
	if write {
		wbit = lineDirty
	}
	want := tag<<lineTagShift | lineValid

	for i := range ways {
		if ways[i]&^uint64(lineDirty) == want {
			ways[i] |= wbit
			c.lru[set] = lruPromote(c.lru[set], uint32(i))
			return true, false, 0
		}
	}
	c.misses++

	// Allocate: prefer the lowest-indexed invalid way, else evict the
	// least-recently-used active way (deactivated ways linger in the
	// stack, so the tail scan skips indices beyond the active window).
	st := c.lru[set]
	activeMask := uint32(1)<<uint(c.activeWays) - 1
	victim := uint32(0)
	if inv := ^(st >> lruValidBit) & activeMask; inv != 0 {
		victim = uint32(bits.TrailingZeros32(inv))
	} else {
		for p := uint(21); ; p -= 3 {
			if w := st >> p & 7; w < uint32(c.activeWays) {
				victim = w
				break
			}
		}
	}
	old := ways[victim]
	if old&(lineValid|lineDirty) == lineValid|lineDirty {
		wroteBack = true
		victimAddr = c.lineAddr(set, old>>lineTagShift)
		c.writebacks++
	}
	ways[victim] = want | wbit
	c.lru[set] = lruPromote(st, victim) | 1<<(lruValidBit+victim)
	return false, wroteBack, victimAddr
}

// SetActiveWays gates the cache down (or up) to n ways. Downsizing
// invalidates every line in the deactivated ways; dirty lines are counted
// as writebacks and the count of dirty lines flushed is returned so the
// caller can charge writeback time and energy. Upsizing simply powers cold
// ways back on. n must be a power of two in [1, Ways].
func (c *Cache) SetActiveWays(n int) (dirtyFlushed int) {
	if n <= 0 || n > c.cfg.Ways || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: SetActiveWays(%d) with %d ways", n, c.cfg.Ways))
	}
	if n < c.activeWays {
		gone := (uint32(1)<<uint(c.activeWays) - 1) &^ (uint32(1)<<uint(n) - 1)
		for s := range c.lru {
			base := s * c.ways
			for w := n; w < c.activeWays; w++ {
				if c.lines[base+w]&(lineValid|lineDirty) == lineValid|lineDirty {
					dirtyFlushed++
					c.writebacks++
				}
				c.lines[base+w] = 0
			}
			c.lru[s] &^= gone << lruValidBit
		}
	}
	c.activeWays = n
	return dirtyFlushed
}

// FlushAll invalidates the entire cache, returning the number of dirty
// lines flushed. Used when a full power-off (rather than way gating) is
// modelled.
func (c *Cache) FlushAll() (dirtyFlushed int) {
	for i := range c.lines {
		if c.lines[i]&(lineValid|lineDirty) == lineValid|lineDirty {
			dirtyFlushed++
			c.writebacks++
		}
		c.lines[i] = 0
	}
	// Validity clears; the recency stacks survive (they must remain
	// permutations of the way indices) and are rebuilt by refills.
	for s := range c.lru {
		c.lru[s] &= lruStackMask
	}
	return dirtyFlushed
}

// ValidLines counts currently valid lines (diagnostics and tests).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i]&lineValid != 0 {
			n++
		}
	}
	return n
}
