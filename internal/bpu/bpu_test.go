package bpu

import (
	"reflect"
	"testing"

	"powerchop/internal/isa"
	"powerchop/internal/program"
	"powerchop/internal/rng"
)

// drive measures a predictor's accuracy on n outcomes from a branch model,
// after a warmup of the same length.
func drive(t *testing.T, p Predictor, m program.BranchModel, pc uint32, n int) float64 {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("branch model: %v", err)
	}
	// Use a walker-like harness: single branch with a global history that
	// the predictor itself must discover.
	prog := singleBranchProgram(t, m)
	w := program.MustWalker(prog)
	for i := 0; i < n; i++ { // warmup
		ri := w.Next()
		p.Access(pc, w.BranchOutcome(ri, 0))
	}
	correct := 0
	for i := 0; i < n; i++ {
		ri := w.Next()
		if p.Access(pc, w.BranchOutcome(ri, 0)) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

func singleBranchProgram(t *testing.T, m program.BranchModel) *program.Program {
	t.Helper()
	b := program.NewBuilder("bench", "TEST", 11)
	ri := b.Region(program.RegionSpec{
		Name:     "b",
		Insns:    4,
		Mix:      isa.Mix{BranchFrac: 0.25},
		Branches: []program.BranchModel{m},
	})
	b.Phase("p", 1<<30, map[int]float64{ri: 1})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestBTBBasics(t *testing.T) {
	b := NewBTB(16)
	if b.Lookup(0x100) {
		t.Fatal("empty BTB hit")
	}
	b.Insert(0x100)
	if !b.Lookup(0x100) {
		t.Fatal("inserted entry missing")
	}
	// A conflicting PC (same index, different tag) evicts.
	conflict := uint32(0x100 + 16*4)
	b.Insert(conflict)
	if b.Lookup(0x100) {
		t.Fatal("conflicting insert did not evict")
	}
	if !b.Lookup(conflict) {
		t.Fatal("conflicting entry missing")
	}
	b.Reset()
	if b.Lookup(conflict) {
		t.Fatal("Reset did not clear BTB")
	}
	if b.Size() != 16 {
		t.Fatalf("Size = %d", b.Size())
	}
}

func TestBTBPanicsOnBadSize(t *testing.T) {
	for _, n := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBTB(%d) did not panic", n)
				}
			}()
			NewBTB(n)
		}()
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(1024, 1024)
	acc := drive(t, p, program.BranchModel{Kind: program.Biased, Bias: 0.95}, 0x40, 4000)
	if acc < 0.90 {
		t.Fatalf("bimodal accuracy on 95%%-biased branch = %.3f, want >= 0.90", acc)
	}
}

func TestBimodalFailsOnPattern(t *testing.T) {
	p := NewBimodal(1024, 1024)
	// Alternating pattern defeats a 2-bit counter.
	acc := drive(t, p, program.BranchModel{Kind: program.Patterned, Pattern: []bool{true, false}}, 0x40, 4000)
	if acc > 0.6 {
		t.Fatalf("bimodal accuracy on T/NT pattern = %.3f, want <= 0.6", acc)
	}
}

func TestTournamentLearnsPattern(t *testing.T) {
	p := NewTournament(ServerConfig().Large)
	acc := drive(t, p, program.BranchModel{Kind: program.Patterned,
		Pattern: []bool{true, true, false, true, false, false}}, 0x40, 6000)
	if acc < 0.95 {
		t.Fatalf("tournament accuracy on period-6 pattern = %.3f, want >= 0.95", acc)
	}
}

func TestTournamentLearnsGlobalCorrelation(t *testing.T) {
	// Correlated outcomes depend on global history; only the tournament's
	// global component can track them. Use two interleaved branches so the
	// global history is informative.
	cfg := ServerConfig()
	small := NewBimodal(cfg.SmallEntries, cfg.SmallBTB)
	large := NewTournament(cfg.Large)

	b := program.NewBuilder("corr", "TEST", 13)
	ri := b.Region(program.RegionSpec{
		Name:  "r",
		Insns: 8,
		Mix:   isa.Mix{BranchFrac: 0.5},
		Branches: []program.BranchModel{
			{Kind: program.Random},
			{Kind: program.Correlated, CorrDepth: 3},
		},
	})
	b.Phase("p", 1<<30, map[int]float64{ri: 1})
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := program.MustWalker(prog)
	region := prog.Regions[ri]

	var smallCorrect, largeCorrect, total int
	for exec := 0; exec < 4000; exec++ {
		w.Next()
		for _, inst := range region.Body {
			if inst.Kind.String() != "branch" {
				continue
			}
			taken := w.BranchOutcome(ri, inst.Sel)
			sc := small.Access(inst.PC, taken)
			lc := large.Access(inst.PC, taken)
			if exec > 2000 && inst.Sel == 1 { // measure the correlated branch post-warmup
				total++
				if sc {
					smallCorrect++
				}
				if lc {
					largeCorrect++
				}
			}
		}
	}
	smallAcc := float64(smallCorrect) / float64(total)
	largeAcc := float64(largeCorrect) / float64(total)
	if largeAcc < smallAcc+0.2 {
		t.Fatalf("tournament accuracy %.3f not clearly above bimodal %.3f on correlated branch",
			largeAcc, smallAcc)
	}
}

func TestTournamentConfigValidate(t *testing.T) {
	good := ServerConfig().Large
	if err := good.Validate(); err != nil {
		t.Fatalf("server config invalid: %v", err)
	}
	bad := []func(*TournamentConfig){
		func(c *TournamentConfig) { c.LocalSize = 3 },
		func(c *TournamentConfig) { c.GlobalSize = -4 },
		func(c *TournamentConfig) { c.ChooserSize = 7 },
		func(c *TournamentConfig) { c.BTBEntries = 6 },
		func(c *TournamentConfig) { c.GlobalHistBits = 0 },
		func(c *TournamentConfig) { c.GlobalHistBits = 31 },
	}
	for i, mutate := range bad {
		c := ServerConfig().Large
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewTournamentPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTournament with invalid config did not panic")
		}
	}()
	NewTournament(TournamentConfig{})
}

func TestResetLosesState(t *testing.T) {
	p := NewTournament(MobileConfig().Large)
	pc := uint32(0x80)
	for i := 0; i < 100; i++ {
		p.Update(pc, true)
	}
	if pred, known := p.Predict(pc); !pred || !known {
		t.Fatal("predictor did not learn always-taken")
	}
	p.Reset()
	if _, known := p.Predict(pc); known {
		t.Fatal("Reset kept BTB state")
	}
	// After reset the pattern table is weakly-not-taken.
	if pred, _ := p.Predict(pc); pred {
		t.Fatal("Reset kept direction state")
	}
}

func TestTournamentResetMatchesNew(t *testing.T) {
	cfg := ServerConfig().Large
	p := NewTournament(cfg)
	for i := uint32(0); i < 5000; i++ {
		p.Access(i*4, i%3 != 0)
	}
	p.Reset()
	if !reflect.DeepEqual(p, NewTournament(cfg)) {
		t.Fatal("Reset left state that NewTournament does not start with")
	}
}

func TestBTBMissCountsAsMispredict(t *testing.T) {
	p := NewBimodal(64, 64)
	pc := uint32(0x10)
	// Train direction taken, but then evict the BTB entry with a conflict.
	for i := 0; i < 8; i++ {
		p.Update(pc, true)
	}
	conflict := pc + 64*4
	p.btb.Insert(conflict)
	if ok := p.Access(pc, true); ok {
		t.Fatal("taken branch without BTB entry counted as correct")
	}
	// Not-taken predictions never need the BTB.
	p2 := NewBimodal(64, 64)
	if ok := p2.Access(0x20, false); !ok {
		t.Fatal("not-taken branch predicted not-taken should be correct without BTB")
	}
}

func TestPredictorNames(t *testing.T) {
	if NewBimodal(64, 64).Name() != "small-local" {
		t.Error("bimodal name")
	}
	if NewTournament(MobileConfig().Large).Name() != "large-tournament" {
		t.Error("tournament name")
	}
}

func TestRandomBranchNearChance(t *testing.T) {
	p := NewTournament(ServerConfig().Large)
	acc := drive(t, p, program.BranchModel{Kind: program.Random}, 0x90, 4000)
	if acc > 0.65 {
		t.Fatalf("tournament accuracy on random branch = %.3f, want near 0.5", acc)
	}
	_ = rng.New(0) // keep the import honest if drive changes
}
