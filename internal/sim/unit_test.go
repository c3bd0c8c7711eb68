package sim

import (
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/cache"
	"powerchop/internal/core"
	"powerchop/internal/isa"
	"powerchop/internal/program"
)

// scalarOnlyProgram exercises the window-boundary off-gate path: with no
// vector ops the idle timeout can only fire at window closes.
func scalarOnlyProgram(t testing.TB) *program.Program {
	b := program.NewBuilder("scalar-only", "TEST", 7)
	r0 := b.Region(program.RegionSpec{Name: "s", Insns: 32})
	b.Phase("p", 1000, map[int]float64{r0: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sparseVecProgram exercises the wake-path off-gate: recurring sparse
// vector ops retroactively gate off and wake on demand.
func sparseVecProgram(t testing.TB) *program.Program {
	b := program.NewBuilder("sparse-vec", "TEST", 9)
	r0 := b.Region(program.RegionSpec{
		Name:  "sparse",
		Insns: 500,
		Mix:   isa.Mix{VectorFrac: 0.002},
	})
	b.Phase("p", 1000, map[int]float64{r0: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTimeoutOffGateStallInvariant pins the consolidated retroactive
// off-gate (vpuUnit.idleGateOff, shared by the on-demand wake path and
// the window-boundary check): under the timeout-only manager, every VPU
// transition — off-gate or wake — charges exactly GateStallVPU +
// SaveRestoreCycles, no other unit ever switches, and so the run's total
// gate stalls are VPU.Switches times that cost.
func TestTimeoutOffGateStallInvariant(t *testing.T) {
	cases := []struct {
		name    string
		prog    *program.Program
		timeout float64
		transl  uint64
	}{
		{"window-check-path", scalarOnlyProgram(t), 20000, 40000},
		{"wake-path", sparseVecProgram(t), 100, 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := core.NewTimeoutVPU(tc.timeout)
			if err != nil {
				t.Fatal(err)
			}
			r := runWith(t, tc.prog, m, tc.transl)
			if r.BPU.Switches != 0 || r.MLC.Switches != 0 {
				t.Fatalf("timeout manager switched BPU %d / MLC %d times",
					r.BPU.Switches, r.MLC.Switches)
			}
			if r.VPU.Switches == 0 {
				t.Fatal("timeout never gated the VPU")
			}
			d := arch.Server()
			perSwitch := d.GateStallVPU + d.VPU.SaveRestoreCycles
			want := float64(r.VPU.Switches) * perSwitch
			if r.GateStalls != want {
				t.Fatalf("GateStalls = %v, want %d switches x %v = %v",
					r.GateStalls, r.VPU.Switches, perSwitch, want)
			}
		})
	}
}

// TestTimeoutBaselinePinned pins the timeout baseline's exact results on
// both off-gate paths, guarding the consolidation of the formerly
// duplicated retroactive off-gate blocks: these literals were captured
// from the pre-refactor simulator and must never drift.
func TestTimeoutBaselinePinned(t *testing.T) {
	cases := []struct {
		name       string
		prog       *program.Program
		timeout    float64
		transl     uint64
		cycles     float64
		switches   uint64
		gateStalls float64
		gatedFrac  float64
	}{
		{"window-check-path", scalarOnlyProgram(t), 20000, 40000,
			334098, 1, 530, 0.94013732497650393},
		{"wake-path", sparseVecProgram(t), 100, 2000,
			2582000, 4000, 2120000, 0.51198189388071258},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := core.NewTimeoutVPU(tc.timeout)
			if err != nil {
				t.Fatal(err)
			}
			r := runWith(t, tc.prog, m, tc.transl)
			if r.Cycles != tc.cycles || r.VPU.Switches != tc.switches ||
				r.GateStalls != tc.gateStalls || r.VPU.GatedFrac != tc.gatedFrac {
				t.Fatalf("timeout baseline drifted:\n got  cycles=%v switches=%d stalls=%v gated=%v\n want cycles=%v switches=%d stalls=%v gated=%v",
					r.Cycles, r.VPU.Switches, r.GateStalls, r.VPU.GatedFrac,
					tc.cycles, tc.switches, tc.gateStalls, tc.gatedFrac)
			}
		})
	}
}

// TestReplayMemPricesOutcomes pins what a memory op costs a lane for each
// outcome its MLC node records: an L1 hit takes only its issue slot and
// never reaches the MLC, an L1 miss that hits the MLC stalls MLCLatency
// and one that misses stalls MemLatency, and both count an MLC access.
func TestReplayMemPricesOutcomes(t *testing.T) {
	p := scalarOnlyProgram(t)
	d := arch.Server()
	s, err := newEngine(p, Config{Design: d, Manager: core.AlwaysOn(), Phase: smallPhaseConfig(), MaxTranslations: 1}, program.CompileAll(p))
	if err != nil {
		t.Fatal(err)
	}
	issue := 1 / d.IssueWidth
	m := s.mlc
	m.out, m.next = []uint8{0, cache.L1Miss | cache.MLCHit, cache.L1Miss}, 0
	for i, tc := range []struct {
		stall         float64
		hits, pending uint64
	}{
		{0, 0, 0},
		{d.Mem.MLCLatency, 1, 1},
		{d.Mem.MemLatency, 1, 2},
	} {
		before := s.cycles
		m.replayMem()
		if got := s.cycles - before; got != issue+tc.stall {
			t.Errorf("op %d: cost %v cycles, want %v", i, got, issue+tc.stall)
		}
		if m.mlcHits != tc.hits || m.pending != tc.pending || m.memOps != uint64(i+1) {
			t.Errorf("op %d: hits %d, MLC accesses %d, memory ops %d; want %d, %d, %d",
				i, m.mlcHits, m.pending, m.memOps, tc.hits, tc.pending, i+1)
		}
	}
}
