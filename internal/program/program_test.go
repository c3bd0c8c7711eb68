package program

import (
	"math"
	"testing"

	"powerchop/internal/isa"
	"powerchop/internal/rng"
)

// twoPhaseProgram builds a small program with two regions and two phases
// used across the tests.
func twoPhaseProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("test", "TEST", 1)
	r0 := b.Region(RegionSpec{
		Name:  "vec-loop",
		Insns: 20,
		Mix:   isa.Mix{VectorFrac: 0.25, BranchFrac: 0.1, LoadFrac: 0.1},
		Branches: []BranchModel{
			{Kind: Biased, Bias: 0.9},
		},
		Streams: []MemStream{
			{WorkingSet: 1 << 14, Stride: 0},
		},
	})
	r1 := b.Region(RegionSpec{
		Name:  "scalar-loop",
		Insns: 16,
		Mix:   isa.Mix{BranchFrac: 0.2},
		Branches: []BranchModel{
			{Kind: Patterned, Pattern: []bool{true, true, false}},
		},
	})
	b.Phase("A", 100, map[int]float64{r0: 1})
	b.Phase("B", 50, map[int]float64{r1: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderBodyComposition(t *testing.T) {
	p := twoPhaseProgram(t)
	r := p.Regions[0]
	var counts [isa.NumKinds]int
	for _, inst := range r.Body {
		counts[inst.Kind]++
	}
	if got := counts[isa.Vector]; got != 5 {
		t.Errorf("vector count = %d, want 5 (25%% of 20)", got)
	}
	if got := counts[isa.Branch]; got != 2 {
		t.Errorf("branch count = %d, want 2", got)
	}
	if got := counts[isa.Load]; got != 2 {
		t.Errorf("load count = %d, want 2", got)
	}
	if got := counts[isa.Scalar]; got != 11 {
		t.Errorf("scalar count = %d, want 11", got)
	}
}

func TestBuilderPCsUniqueAndOrdered(t *testing.T) {
	p := twoPhaseProgram(t)
	seen := map[uint32]bool{}
	for _, r := range p.Regions {
		for i, inst := range r.Body {
			if seen[inst.PC] {
				t.Fatalf("duplicate PC %#x", inst.PC)
			}
			seen[inst.PC] = true
			if want := r.HeadPC + uint32(4*i); inst.PC != want {
				t.Fatalf("PC = %#x, want %#x", inst.PC, want)
			}
		}
	}
	if p.Regions[0].HeadPC == p.Regions[1].HeadPC {
		t.Fatal("region heads collide")
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		spec RegionSpec
	}{
		{"zero-insns", RegionSpec{Name: "r", Insns: 0}},
		{"oversize", RegionSpec{Name: "r", Insns: 5000}},
		{"bad-mix", RegionSpec{Name: "r", Insns: 8, Mix: isa.Mix{VectorFrac: 2}}},
		{"branch-no-model", RegionSpec{Name: "r", Insns: 8, Mix: isa.Mix{BranchFrac: 0.5}}},
		{"mem-no-stream", RegionSpec{Name: "r", Insns: 8, Mix: isa.Mix{LoadFrac: 0.5}}},
		{"huge-stream", RegionSpec{Name: "r", Insns: 8, Mix: isa.Mix{LoadFrac: 0.5},
			Streams: []MemStream{{WorkingSet: 1 << 40}}}},
	}
	for _, c := range cases {
		b := NewBuilder("bad", "TEST", 1)
		ri := b.Region(c.spec)
		b.Phase("p", 10, map[int]float64{ri: 1})
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", c.name)
		}
	}
}

func TestBuilderNoRegions(t *testing.T) {
	b := NewBuilder("empty", "TEST", 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with no regions succeeded")
	}
}

func TestBuilderBadPhaseIndex(t *testing.T) {
	b := NewBuilder("bad", "TEST", 1)
	b.Region(RegionSpec{Name: "r", Insns: 8})
	b.Phase("p", 10, map[int]float64{5: 1})
	if _, err := b.Build(); err == nil {
		t.Fatal("Build with out-of-range phase weight succeeded")
	}
}

func TestValidateCatchesBadPrograms(t *testing.T) {
	good := twoPhaseProgram(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(*Program)
	}{
		{"no-phases", func(p *Program) { p.Phases = nil }},
		{"no-regions", func(p *Program) { p.Regions = nil }},
		{"zero-duration", func(p *Program) { p.Phases[0].Translations = 0 }},
		{"negative-weight", func(p *Program) { p.Phases[0].Weights[0] = -1 }},
		{"all-zero-weights", func(p *Program) {
			for i := range p.Phases[0].Weights {
				p.Phases[0].Weights[i] = 0
			}
		}},
		{"weight-len-mismatch", func(p *Program) { p.Phases[0].Weights = p.Phases[0].Weights[:1] }},
		{"dup-head", func(p *Program) { p.Regions[1].HeadPC = p.Regions[0].HeadPC }},
	}
	for _, m := range mutations {
		p := twoPhaseProgram(t)
		m.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", m.name)
		}
	}
}

func TestWalkerPhaseSchedule(t *testing.T) {
	p := twoPhaseProgram(t)
	w, err := NewWalker(p)
	if err != nil {
		t.Fatal(err)
	}
	// Phase A: 100 translations of region 0.
	for i := 0; i < 100; i++ {
		if ri := w.Next(); ri != 0 {
			t.Fatalf("translation %d: region %d, want 0 (phase A)", i, ri)
		}
		if w.PhaseName() != "A" {
			t.Fatalf("translation %d in phase %q", i, w.PhaseName())
		}
	}
	// Phase B: 50 translations of region 1.
	for i := 0; i < 50; i++ {
		if ri := w.Next(); ri != 1 {
			t.Fatalf("phase B translation %d: region %d, want 1", i, ri)
		}
	}
	// Schedule wraps back to phase A.
	if ri := w.Next(); ri != 0 {
		t.Fatalf("after wrap: region %d, want 0", ri)
	}
	if got := w.Executed(); got != 151 {
		t.Fatalf("Executed = %d, want 151", got)
	}
}

func TestWalkerDeterminism(t *testing.T) {
	p := twoPhaseProgram(t)
	w1 := MustWalker(p)
	w2 := MustWalker(p)
	for i := 0; i < 500; i++ {
		r1, r2 := w1.Next(), w2.Next()
		if r1 != r2 {
			t.Fatalf("region draw diverged at %d", i)
		}
		b1 := w1.BranchOutcome(r1, 0)
		b2 := w2.BranchOutcome(r2, 0)
		if b1 != b2 {
			t.Fatalf("branch outcome diverged at %d", i)
		}
		if len(p.Regions[r1].Streams) > 0 {
			if w1.Address(r1, 0) != w2.Address(r2, 0) {
				t.Fatalf("address diverged at %d", i)
			}
		}
	}
}

func TestWalkerWeightedDraw(t *testing.T) {
	b := NewBuilder("weighted", "TEST", 7)
	r0 := b.Region(RegionSpec{Name: "hot", Insns: 8})
	r1 := b.Region(RegionSpec{Name: "cold", Insns: 8})
	b.Phase("mix", 100000, map[int]float64{r0: 3, r1: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w := MustWalker(p)
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	frac := float64(counts[r0]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Fatalf("hot region drawn %.3f of the time, want ~0.75", frac)
	}
}

func TestBiasedBranchOutcomeRate(t *testing.T) {
	m := BranchModel{Kind: Biased, Bias: 0.8}
	rnd := rng.New(5)
	var st branchState
	taken := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.outcome(&st, 0, rnd) {
			taken++
		}
	}
	rate := float64(taken) / n
	if math.Abs(rate-0.8) > 0.02 {
		t.Fatalf("biased branch taken rate = %.3f, want ~0.8", rate)
	}
}

func TestPatternedBranchCycles(t *testing.T) {
	m := BranchModel{Kind: Patterned, Pattern: []bool{true, false, false}}
	rnd := rng.New(5)
	var st branchState
	want := []bool{true, false, false, true, false, false, true}
	for i, wv := range want {
		if got := m.outcome(&st, 0, rnd); got != wv {
			t.Fatalf("pattern step %d = %v, want %v", i, got, wv)
		}
	}
}

func TestCorrelatedBranchFollowsHistory(t *testing.T) {
	m := BranchModel{Kind: Correlated, CorrDepth: 2}
	rnd := rng.New(5)
	var st branchState
	cases := []struct {
		hist uint64
		want bool
	}{
		{0b00, false}, {0b01, true}, {0b10, true}, {0b11, false},
		{0b111, false}, {0b101, true}, // only the low 2 bits matter
	}
	for _, c := range cases {
		if got := m.outcome(&st, c.hist, rnd); got != c.want {
			t.Errorf("hist %b: outcome %v, want %v", c.hist, got, c.want)
		}
	}
}

func TestNoiseBoundsPredictability(t *testing.T) {
	m := BranchModel{Kind: Patterned, Pattern: []bool{true}, Noise: 0.3}
	rnd := rng.New(5)
	var st branchState
	taken := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.outcome(&st, 0, rnd) {
			taken++
		}
	}
	rate := float64(taken) / n
	if math.Abs(rate-0.7) > 0.02 {
		t.Fatalf("noisy always-taken branch rate = %.3f, want ~0.7", rate)
	}
}

func TestBranchModelValidate(t *testing.T) {
	bad := []BranchModel{
		{Kind: Biased, Bias: -1},
		{Kind: Patterned},
		{Kind: Correlated, CorrDepth: 0},
		{Kind: Correlated, CorrDepth: 64},
		{Kind: Random, Noise: 2},
		{Kind: BranchKind(9)},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate passed, want error", i, m)
		}
	}
	good := []BranchModel{
		{Kind: Biased, Bias: 0.5},
		{Kind: Patterned, Pattern: []bool{true}},
		{Kind: Correlated, CorrDepth: 8},
		{Kind: Random},
	}
	for i, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("case %d: Validate = %v, want nil", i, err)
		}
	}
}

func TestBranchKindString(t *testing.T) {
	for k, want := range map[BranchKind]string{
		Biased: "biased", Patterned: "patterned", Correlated: "correlated", Random: "random",
	} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", k, got, want)
		}
	}
	if got := BranchKind(42).String(); got == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestStridedStreamWalksSequentially(t *testing.T) {
	s := MemStream{WorkingSet: 256, Stride: 64, base: 0x1000}
	rnd := rng.New(5)
	var st streamState
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1000}
	for i, wv := range want {
		if got := s.next(&st, rnd); got != wv {
			t.Fatalf("access %d = %#x, want %#x", i, got, wv)
		}
	}
}

func TestRandomStreamStaysInWorkingSet(t *testing.T) {
	s := MemStream{WorkingSet: 4096, base: 0x10000}
	rnd := rng.New(5)
	var st streamState
	for i := 0; i < 1000; i++ {
		a := s.next(&st, rnd)
		if a < s.base || a >= s.base+s.WorkingSet {
			t.Fatalf("address %#x outside working set", a)
		}
	}
}

func TestStreamValidate(t *testing.T) {
	if err := (&MemStream{}).Validate(); err == nil {
		t.Error("zero working set accepted")
	}
	if err := (&MemStream{WorkingSet: 64, Stride: 128}).Validate(); err == nil {
		t.Error("stride beyond working set accepted")
	}
	if err := (&MemStream{WorkingSet: 1024, Stride: 64}).Validate(); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}

func TestStreamBasesDisjoint(t *testing.T) {
	b := NewBuilder("addrs", "TEST", 3)
	ri := b.Region(RegionSpec{
		Name:  "two-streams",
		Insns: 8,
		Mix:   isa.Mix{LoadFrac: 0.5},
		Streams: []MemStream{
			{WorkingSet: maxStreamFootprint},
			{WorkingSet: maxStreamFootprint},
		},
	})
	b.Phase("p", 10, map[int]float64{ri: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := p.Regions[0].Streams
	lo0, hi0 := s[0].base, s[0].base+s[0].WorkingSet
	lo1, hi1 := s[1].base, s[1].base+s[1].WorkingSet
	if lo0 < hi1 && lo1 < hi0 {
		t.Fatalf("stream ranges overlap: [%#x,%#x) and [%#x,%#x)", lo0, hi0, lo1, hi1)
	}
}

func TestTotalScheduleTranslations(t *testing.T) {
	p := twoPhaseProgram(t)
	if got := p.TotalScheduleTranslations(); got != 150 {
		t.Fatalf("TotalScheduleTranslations = %d, want 150", got)
	}
}

func TestGlobalHistoryTracksOutcomes(t *testing.T) {
	p := twoPhaseProgram(t)
	w := MustWalker(p)
	ri := w.Next()
	h0 := w.GlobalHistory()
	taken := w.BranchOutcome(ri, 0)
	h1 := w.GlobalHistory()
	if want := h0<<1 | boolBit(taken); h1 != want {
		t.Fatalf("global history = %b, want %b", h1, want)
	}
}

func TestMustWalkerPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustWalker on invalid program did not panic")
		}
	}()
	MustWalker(&Program{Name: "bad"})
}
