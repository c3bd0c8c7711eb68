// Package bpu implements the branch prediction unit of the simulated core:
// a small always-on local predictor and a large tournament predictor that
// PowerChop can power gate.
//
// The paper's design points (Table I) pair a local/global tournament
// predictor (4K/2K-entry BTB, 16K/8K-entry chooser) with a gated-off
// fallback of "local only, 1K/512-entry BTB". This package models both:
//
//   - Bimodal: 2-bit saturating counters indexed by PC plus a small BTB —
//     the fallback predictor that stays powered when the BPU is gated.
//   - Tournament: a McFarling combining predictor — a large local
//     direction table, a gshare global component, a chooser array and a
//     large BTB — the structure PowerChop gates off, losing its state
//     ("lose global, chooser and BTB state, rewarm").
//
// Predictions count as correct only when the direction is right and, for
// taken branches, the BTB holds the target; a BTB miss on a taken branch
// redirects fetch just like a direction mispredict.
package bpu

import "fmt"

// Predictor is the interface shared by the small and large predictors.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc and
	// whether the predictor can supply the target on a taken prediction.
	Predict(pc uint32) (taken, targetKnown bool)
	// Update trains the predictor with the resolved outcome.
	Update(pc uint32, taken bool)
	// Access performs Predict followed by Update and reports whether the
	// prediction was correct (direction right, and target known whenever
	// the branch was actually taken).
	Access(pc uint32, taken bool) bool
	// Reset clears all state, modelling retention loss on power gating.
	Reset()
	// Name identifies the predictor in diagnostics.
	Name() string
}

// counter is a 2-bit saturating counter helper.
func bump(c uint8, taken bool) uint8 {
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	return c
}

func takenOf(c uint8) bool { return c >= 2 }

// BTB is a direct-mapped branch target buffer. Only presence is modelled:
// the simulator cares whether the target is available, not its value.
type BTB struct {
	tags []uint32
}

// NewBTB returns a BTB with n entries; n must be a power of two.
func NewBTB(n int) *BTB {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("bpu: BTB size %d is not a positive power of two", n))
	}
	b := &BTB{tags: make([]uint32, n)}
	b.Reset()
	return b
}

// Lookup reports whether the BTB holds an entry for pc.
func (b *BTB) Lookup(pc uint32) bool {
	return b.tags[b.index(pc)] == pc
}

// Insert records pc in the BTB.
func (b *BTB) Insert(pc uint32) {
	b.tags[b.index(pc)] = pc
}

// Reset clears the BTB (state loss on gating).
func (b *BTB) Reset() {
	for i := range b.tags {
		b.tags[i] = invalidTag
	}
}

// Size returns the entry count.
func (b *BTB) Size() int { return len(b.tags) }

const invalidTag = ^uint32(0)

func (b *BTB) index(pc uint32) uint32 {
	// Hash the PC: the synthetic guest lays regions out at regular 4KB
	// strides, which raw low-order bits would alias pathologically;
	// hashing models the irregular layout of real code.
	return hashPC(pc) & uint32(len(b.tags)-1)
}

// hashPC spreads PCs across predictor tables.
func hashPC(pc uint32) uint32 {
	x := pc >> 2
	x ^= x >> 7
	x *= 0x9e3779b1
	return x
}

// Bimodal is the small local predictor: per-PC 2-bit counters plus a small
// BTB. It stays powered when the large BPU is gated off.
type Bimodal struct {
	table []uint8
	btb   *BTB
}

// NewBimodal returns a bimodal predictor with the given counter-table and
// BTB sizes (both powers of two).
func NewBimodal(entries, btbEntries int) *Bimodal {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("bpu: bimodal size %d is not a positive power of two", entries))
	}
	b := &Bimodal{table: make([]uint8, entries), btb: NewBTB(btbEntries)}
	b.Reset()
	return b
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "small-local" }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint32) (bool, bool) {
	taken := takenOf(b.table[hashPC(pc)&uint32(len(b.table)-1)])
	return taken, b.btb.Lookup(pc)
}

// Update implements Predictor.
func (b *Bimodal) Update(pc uint32, taken bool) {
	i := hashPC(pc) & uint32(len(b.table)-1)
	b.table[i] = bump(b.table[i], taken)
	if taken {
		b.btb.Insert(pc)
	}
}

// Access implements Predictor.
func (b *Bimodal) Access(pc uint32, taken bool) bool {
	pred, known := b.Predict(pc)
	b.Update(pc, taken)
	if pred != taken {
		return false
	}
	return !taken || known
}

// Reset implements Predictor. Counters initialize to weakly-not-taken.
func (b *Bimodal) Reset() {
	for i := range b.table {
		b.table[i] = 1
	}
	b.btb.Reset()
}

// TournamentConfig sizes the large predictor's structures (a McFarling
// combining predictor: a large per-PC local table, a gshare global
// component, and a chooser). All sizes must be powers of two.
type TournamentConfig struct {
	LocalSize      int // local direction table (2-bit counters)
	GlobalSize     int // gshare table (2-bit counters)
	GlobalHistBits int // global history length
	ChooserSize    int // chooser table (2-bit counters)
	BTBEntries     int // large BTB
}

// Validate reports an error for inconsistent configurations.
func (c TournamentConfig) Validate() error {
	pow2 := func(name string, v int) error {
		if v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("bpu: %s = %d is not a positive power of two", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"LocalSize", c.LocalSize},
		{"GlobalSize", c.GlobalSize},
		{"ChooserSize", c.ChooserSize},
		{"BTBEntries", c.BTBEntries},
	} {
		if err := pow2(f.name, f.v); err != nil {
			return err
		}
	}
	if c.GlobalHistBits <= 0 || c.GlobalHistBits > 30 {
		return fmt.Errorf("bpu: GlobalHistBits = %d out of (0,30]", c.GlobalHistBits)
	}
	return nil
}

// Tournament is the large local/global tournament predictor.
type Tournament struct {
	cfg     TournamentConfig
	local   []uint8
	global  []uint8
	chooser []uint8
	ghr     uint32
	btb     *BTB
}

// NewTournament returns a tournament predictor for the configuration. It
// panics on invalid configurations; use cfg.Validate to check first.
func NewTournament(cfg TournamentConfig) *Tournament {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Tournament{
		cfg:     cfg,
		local:   make([]uint8, cfg.LocalSize),
		global:  make([]uint8, cfg.GlobalSize),
		chooser: make([]uint8, cfg.ChooserSize),
		btb:     NewBTB(cfg.BTBEntries),
	}
	t.Reset()
	return t
}

// Name implements Predictor.
func (t *Tournament) Name() string { return "large-tournament" }

func (t *Tournament) localIndex(pc uint32) uint32 {
	return hashPC(pc) & uint32(len(t.local)-1)
}

func (t *Tournament) globalIndex(pc uint32) uint32 {
	hist := t.ghr & (1<<uint(t.cfg.GlobalHistBits) - 1)
	return (hist ^ hashPC(pc)) & uint32(len(t.global)-1)
}

func (t *Tournament) chooserIndex(pc uint32) uint32 {
	return (t.ghr ^ hashPC(pc)>>1) & uint32(len(t.chooser)-1)
}

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint32) (bool, bool) {
	localPred := takenOf(t.local[t.localIndex(pc)])
	globalPred := takenOf(t.global[t.globalIndex(pc)])
	useGlobal := takenOf(t.chooser[t.chooserIndex(pc)])
	pred := localPred
	if useGlobal {
		pred = globalPred
	}
	return pred, t.btb.Lookup(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint32, taken bool) {
	lIdx := t.localIndex(pc)
	localPred := takenOf(t.local[lIdx])
	gIdx := t.globalIndex(pc)
	globalPred := takenOf(t.global[gIdx])
	cIdx := t.chooserIndex(pc)

	// Train the chooser toward the component that was right, when they
	// disagree.
	if localPred != globalPred {
		t.chooser[cIdx] = bump(t.chooser[cIdx], globalPred == taken)
	}
	t.local[lIdx] = bump(t.local[lIdx], taken)
	t.global[gIdx] = bump(t.global[gIdx], taken)
	t.ghr = t.ghr<<1 | uint32(bit(taken))
	if taken {
		t.btb.Insert(pc)
	}
}

// Access implements Predictor.
func (t *Tournament) Access(pc uint32, taken bool) bool {
	pred, known := t.Predict(pc)
	t.Update(pc, taken)
	if pred != taken {
		return false
	}
	return !taken || known
}

// Reset implements Predictor, modelling the loss of global, chooser, local
// and BTB state when the unit is power gated. It restores exactly the
// state NewTournament returns, so a reset predictor can stand in for a
// new one.
func (t *Tournament) Reset() {
	for i := range t.local {
		t.local[i] = 1
	}
	for i := range t.global {
		t.global[i] = 1
	}
	for i := range t.chooser {
		t.chooser[i] = 1 // weakly prefer local
	}
	t.ghr = 0
	t.btb.Reset()
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Config sizes the BPU: the always-powered small predictor and the large
// predictor that can be gated off, losing its state.
type Config struct {
	SmallEntries  int // small predictor counter table
	SmallBTB      int // small predictor BTB
	Large         TournamentConfig
	LargeOnAtBoot bool
}

// ServerConfig mirrors Table I's server design point: loc/glob tournament,
// 4K-entry BTB, 16K-entry chooser; fallback local-only with 1K-entry BTB.
func ServerConfig() Config {
	return Config{
		SmallEntries: 2048,
		SmallBTB:     1024,
		Large: TournamentConfig{
			LocalSize:      8192,
			GlobalSize:     16384,
			GlobalHistBits: 12,
			ChooserSize:    16384,
			BTBEntries:     4096,
		},
		LargeOnAtBoot: true,
	}
}

// MobileConfig mirrors Table I's mobile design point: loc/glob tournament,
// 2K-entry BTB, 8K-entry chooser; fallback local-only with 512-entry BTB.
func MobileConfig() Config {
	return Config{
		SmallEntries: 1024,
		SmallBTB:     512,
		Large: TournamentConfig{
			LocalSize:      4096,
			GlobalSize:     8192,
			GlobalHistBits: 12,
			ChooserSize:    8192,
			BTBEntries:     2048,
		},
		LargeOnAtBoot: true,
	}
}
