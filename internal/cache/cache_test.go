package cache

import (
	"testing"
	"testing/quick"

	"powerchop/internal/rng"
)

func smallConfig() Config {
	return Config{SizeBytes: 4096, Ways: 4, LineBytes: 64} // 16 sets
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 4096, Ways: 3, LineBytes: 64},
		{SizeBytes: 4096, Ways: 4, LineBytes: 48},
		{SizeBytes: 4000, Ways: 4, LineBytes: 64},
		{SizeBytes: 0, Ways: 4, LineBytes: 64},
		{SizeBytes: 4096 * 3, Ways: 4, LineBytes: 64}, // 48 sets: not a power of two
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := smallConfig().Sets(); got != 16 {
		t.Fatalf("Sets = %d, want 16", got)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := New(smallConfig())
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if hit, _, _ := c.Access(0x103f, false); !hit {
		t.Fatal("same-line access missed")
	}
	// Next line misses.
	if hit, _, _ := c.Access(0x1040, false); hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(smallConfig()) // 4 ways
	// Fill one set with 4 lines: addresses mapping to set 0.
	setStride := uint64(16 * 64) // sets * line
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	// Touch line 0 to make line 1 the LRU.
	c.Access(0, false)
	// Insert a 5th line; line 1 must be evicted.
	c.Access(4*setStride, false)
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("MRU line was evicted")
	}
	if hit, _, _ := c.Access(1*setStride, false); hit {
		t.Fatal("LRU line was not evicted")
	}
}

func TestDirtyEvictionSignalsWriteback(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(16 * 64)
	c.Access(0, true) // dirty line
	for i := uint64(1); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	_, wb, victim := c.Access(4*setStride, false) // evicts the dirty line
	if !wb {
		t.Fatal("dirty eviction did not signal writeback")
	}
	if victim != 0 {
		t.Fatalf("victim address = %#x, want 0 (the dirty line's base)", victim)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writeback count = %d", got)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(16 * 64)
	for i := uint64(0); i < 5; i++ {
		if _, wb, _ := c.Access(i*setStride, false); wb {
			t.Fatal("clean eviction signalled writeback")
		}
	}
}

func TestWayGatingShrinksCapacity(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(16 * 64)
	// Warm 4 lines in set 0.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	if got := c.ValidLines(); got != 4 {
		t.Fatalf("valid lines = %d", got)
	}
	c.SetActiveWays(1)
	if got := c.ActiveWays(); got != 1 {
		t.Fatalf("ActiveWays = %d", got)
	}
	if got := c.ValidLines(); got != 1 {
		t.Fatalf("after gating, valid lines = %d, want 1", got)
	}
	// With 1 way, two alternating lines always conflict.
	c.ResetStats()
	for i := 0; i < 10; i++ {
		c.Access(0, false)
		c.Access(setStride, false)
	}
	if hr := c.Stats().HitRate(); hr > 0.05 {
		t.Fatalf("1-way alternating hit rate = %v, want ~0", hr)
	}
}

func TestWayGatingFlushesDirtyLines(t *testing.T) {
	c := New(smallConfig())
	setStride := uint64(16 * 64)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, true) // all dirty
	}
	dirty := c.SetActiveWays(2)
	if dirty != 2 {
		t.Fatalf("dirty flushed = %d, want 2", dirty)
	}
	// Upsizing powers ways back on cold, flushing nothing.
	if dirty := c.SetActiveWays(4); dirty != 0 {
		t.Fatalf("upsize flushed %d lines", dirty)
	}
}

// mlcConfig is a 64KB 8-way MLC: 8KB per way.
func mlcConfig() Config {
	return Config{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64}
}

func TestGateMLCFlushesAndShrinks(t *testing.T) {
	c := New(mlcConfig())
	rnd := rng.New(3)
	for i := 0; i < 5000; i++ {
		c.Access(rnd.Uint64n(1<<15), true)
	}
	flushed := c.SetActiveWays(1)
	if c.ActiveWays() != 1 {
		t.Fatalf("MLC active ways = %d", c.ActiveWays())
	}
	if flushed == 0 {
		t.Fatal("gating a dirty MLC flushed nothing")
	}
	if got, max := c.ValidLines(), mlcConfig().Sets(); got > max {
		t.Fatalf("valid lines = %d after gating to one way of %d sets", got, max)
	}
}

func TestGatedMLCStillServices(t *testing.T) {
	c := New(mlcConfig())
	c.SetActiveWays(1)
	c.Access(0x9000, false)
	// Lines in other sets leave the one-way MLC's copy in place.
	for i := uint64(1); i < 6; i++ {
		c.Access(0x9000+i*64, false)
	}
	if hit, _, _ := c.Access(0x9000, false); !hit {
		t.Fatal("1-way MLC failed to service a resident line")
	}
}

func TestHitRateDropsWhenGated(t *testing.T) {
	c := New(mlcConfig())
	rnd := rng.New(9)
	ws := uint64(48 << 10) // fits the 64KB MLC, not its 8KB single way
	warm := func() {
		for i := 0; i < 30000; i++ {
			c.Access(rnd.Uint64n(ws), false)
		}
	}
	warm()
	c.ResetStats()
	warm()
	full := c.Stats().HitRate()
	c.SetActiveWays(1)
	warm()
	c.ResetStats()
	warm()
	gated := c.Stats().HitRate()
	if full < 0.95 {
		t.Fatalf("full MLC hit rate = %v, want high", full)
	}
	if gated > full-0.3 {
		t.Fatalf("gated hit rate %v not clearly below full %v", gated, full)
	}
}

func TestSetActiveWaysPanics(t *testing.T) {
	c := New(smallConfig())
	for _, n := range []int{0, 3, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetActiveWays(%d) did not panic", n)
				}
			}()
			c.SetActiveWays(n)
		}()
	}
}

func TestFlushAll(t *testing.T) {
	c := New(smallConfig())
	c.Access(0, true)
	c.Access(64, false)
	if got := c.FlushAll(); got != 1 {
		t.Fatalf("FlushAll dirty = %d, want 1", got)
	}
	if got := c.ValidLines(); got != 0 {
		t.Fatalf("lines after flush = %d", got)
	}
}

func TestWorkingSetFitBehaviour(t *testing.T) {
	// A working set within capacity converges to ~100% hits; one far
	// beyond capacity stays near 0% under random access.
	c := New(Config{SizeBytes: 1 << 16, Ways: 8, LineBytes: 64})
	rnd := rng.New(17)
	fit := uint64(1 << 14) // 16KB in a 64KB cache
	for i := 0; i < 20000; i++ {
		c.Access(rnd.Uint64n(fit), false)
	}
	c.ResetStats()
	for i := 0; i < 20000; i++ {
		c.Access(rnd.Uint64n(fit), false)
	}
	if hr := c.Stats().HitRate(); hr < 0.99 {
		t.Fatalf("fitting working set hit rate = %v", hr)
	}

	big := uint64(1 << 26) // 64MB in a 64KB cache
	c.ResetStats()
	for i := 0; i < 20000; i++ {
		c.Access(rnd.Uint64n(big)+1<<32, false)
	}
	if hr := c.Stats().HitRate(); hr > 0.05 {
		t.Fatalf("oversized working set hit rate = %v", hr)
	}
}

func TestStatsHitRateEmpty(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
}

func TestAccessesInvariant(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		c := New(smallConfig())
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses && s.Accesses == uint64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidLinesNeverExceedCapacity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(smallConfig())
		c.SetActiveWays(2)
		for _, a := range addrs {
			c.Access(uint64(a), false)
		}
		return c.ValidLines() <= 2*16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCacheAccess times one Access on the server design's caches
// (arch.Server: a 32 KB 8-way L1 and a 1024 KB 8-way MLC, 64 B lines),
// the MLC at 8, 4 and 1 active ways. Each cache replays two address
// streams, generated before the timer starts and warmed through once:
// "hit-heavy" draws random lines from a working set of half the active
// capacity, one store per four accesses, so every access hits;
// "streaming" reads sequential lines over four times the active
// capacity, so every access misses and evicts. One op is one Access.
func BenchmarkCacheAccess(b *testing.B) {
	l1 := Config{SizeBytes: 32 << 10, Ways: 8, LineBytes: 64}
	mlc := Config{SizeBytes: 1024 << 10, Ways: 8, LineBytes: 64}
	caches := []struct {
		name string
		cfg  Config
		ways int
	}{
		{"L1", l1, 8},
		{"MLC/ways=8", mlc, 8},
		{"MLC/ways=4", mlc, 4},
		{"MLC/ways=1", mlc, 1},
	}
	type op struct {
		addr  uint64
		write bool
	}
	const base = 1 << 32 // clear of the zero line
	for _, c := range caches {
		line := uint64(c.cfg.LineBytes)
		lines := uint64(c.cfg.SizeBytes / c.cfg.Ways * c.ways / c.cfg.LineBytes)
		rnd := rng.New(1)
		hot := make([]op, 1<<16)
		for i := range hot {
			hot[i] = op{base + rnd.Uint64n(lines/2)*line, i%4 == 3}
		}
		stream := make([]op, 4*lines) // a power of two, like hot's length
		for i := range stream {
			stream[i] = op{base + uint64(i)*line, false}
		}
		for _, s := range []struct {
			name string
			ops  []op
		}{{"hit-heavy", hot}, {"streaming", stream}} {
			b.Run(c.name+"/"+s.name, func(b *testing.B) {
				cache := New(c.cfg)
				cache.SetActiveWays(c.ways)
				for _, o := range s.ops {
					cache.Access(o.addr, o.write)
				}
				mask := len(s.ops) - 1
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o := s.ops[i&mask]
					cache.Access(o.addr, o.write)
				}
			})
		}
	}
}
