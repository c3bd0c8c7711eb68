package cache

import "testing"

func testHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:         Config{SizeBytes: 1 << 12, Ways: 4, LineBytes: 64}, // 4KB
		MLC:        Config{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64}, // 64KB
		MLCLatency: 12,
		MemLatency: 180,
	}
}

func TestHierarchyConfigValidate(t *testing.T) {
	if err := testHierarchyConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	c := testHierarchyConfig()
	c.MemLatency = 1 // below MLC latency
	if err := c.Validate(); err == nil {
		t.Fatal("inconsistent latencies accepted")
	}
	c = testHierarchyConfig()
	c.L1.Ways = 3
	if err := c.Validate(); err == nil {
		t.Fatal("bad L1 accepted")
	}
	c = testHierarchyConfig()
	c.MLC.Ways = 3
	if err := c.Validate(); err == nil {
		t.Fatal("bad MLC accepted")
	}
}

// access drives one op through l1 and mlc as the simulator's front-end
// does, the L1 first and then the MLC's half of a miss, and returns the
// op's outcome bits.
func access(l1, mlc *Cache, addr uint64, write bool) uint8 {
	hit, wb, victim := l1.Access(addr, write)
	if hit {
		return 0
	}
	out := []uint8{L1Miss}
	mlc.ServeMisses([]Miss{{WB: wb, Victim: victim, Addr: addr}}, out)
	return out[0]
}

func TestColdAccessGoesToMemory(t *testing.T) {
	cfg := testHierarchyConfig()
	l1, mlc := New(cfg.L1), New(cfg.MLC)
	o := access(l1, mlc, 0x123456, false)
	if o != L1Miss {
		t.Fatalf("cold access outcome = %02b, want an L1 miss and an MLC miss", o)
	}
	if s := cfg.Stall(o); s != 180 {
		t.Fatalf("cold stall = %v", s)
	}
	if st := mlc.Stats(); st.Accesses != 1 || st.Misses != 1 {
		t.Fatalf("MLC stats after a cold access = %+v, want one miss", st)
	}
}

func TestL1HitIsFree(t *testing.T) {
	cfg := testHierarchyConfig()
	l1, mlc := New(cfg.L1), New(cfg.MLC)
	access(l1, mlc, 0x1000, false)
	o := access(l1, mlc, 0x1000, false)
	if o != 0 || cfg.Stall(o) != 0 {
		t.Fatalf("L1 hit outcome = %02b, stall %v", o, cfg.Stall(o))
	}
	if n := mlc.Stats().Accesses; n != 1 {
		t.Fatalf("MLC accesses = %d, want only the cold miss", n)
	}
}

func TestMLCHitAfterL1Eviction(t *testing.T) {
	cfg := testHierarchyConfig()
	l1, mlc := New(cfg.L1), New(cfg.MLC)
	// Fill one L1 set (4 ways) past capacity so the first line falls to
	// MLC-only residence.
	l1SetStride := uint64(l1.Config().Sets() * 64)
	for i := uint64(0); i < 5; i++ {
		access(l1, mlc, i*l1SetStride, false)
	}
	o := access(l1, mlc, 0, false)
	if o&L1Miss == 0 {
		t.Fatal("expected L1 miss after eviction")
	}
	if o&MLCHit == 0 {
		t.Fatal("expected MLC hit for recently evicted line")
	}
	if s := cfg.Stall(o); s != 12 {
		t.Fatalf("MLC stall = %v", s)
	}
}

func TestDirtyL1EvictionWritesToMLC(t *testing.T) {
	cfg := testHierarchyConfig()
	l1, mlc := New(cfg.L1), New(cfg.MLC)
	l1SetStride := uint64(l1.Config().Sets() * 64)
	access(l1, mlc, 0, true) // dirty in L1
	for i := uint64(1); i < 6; i++ {
		access(l1, mlc, i*l1SetStride, false)
	}
	if n := l1.Stats().Writebacks; n != 1 {
		t.Fatalf("L1 writebacks = %d, want the dirty line's one", n)
	}
	if n := mlc.FlushAll(); n != 1 {
		t.Fatalf("dirty MLC lines = %d, want the written-back L1 victim", n)
	}
}

// TestServeMissesWritesVictimFirst pins the order within one miss: the
// dirty victim is written into the MLC before the lookup. In a one-set,
// two-way MLC holding y (LRU) and z, writing v back evicts y, so y's
// lookup misses where a lookup first would have hit.
func TestServeMissesWritesVictimFirst(t *testing.T) {
	mlc := New(Config{SizeBytes: 128, Ways: 2, LineBytes: 64})
	const v, y, z = 0, 64, 128
	mlc.Access(y, false)
	mlc.Access(z, false)
	out := []uint8{L1Miss, L1Miss}
	mlc.ServeMisses([]Miss{{At: 0, WB: true, Victim: v, Addr: y}, {At: 1, Addr: v}}, out)
	if out[0] != L1Miss || out[1] != L1Miss|MLCHit {
		t.Fatalf("outcomes = %02b, want y's lookup to miss and v to hit after its writeback", out)
	}
}
