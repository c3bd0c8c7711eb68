package sim

import (
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/pvt"
)

// bpuToggler powers the large predictor off and back on at alternate
// windows, so every other window boundary retires a predictor node and
// the next powers one on.
type bpuToggler struct{ off bool }

func (m *bpuToggler) Name() string { return "bpu-toggler" }

func (m *bpuToggler) Boot() core.Directive { return core.Directive{Policy: pvt.FullOn} }

func (m *bpuToggler) WindowEnd(core.WindowReport) core.Directive {
	m.off = !m.off
	p := pvt.FullOn
	p.BPUOn = !m.off
	return core.Directive{Policy: p}
}

// TestSteadyStateAllocationsPinned asserts that the simulation loop does
// not allocate per translation or per window: growing the run 16× must
// leave the per-run allocation count nearly unchanged (setup dominates;
// the small slack absorbs saturating growth such as the CDE's phase
// table). One allocation per window would cost ~300 extra allocations at
// the long length and trip the bound immediately; the predictor toggler
// pins that a power-on reuses a retired predictor's tables.
func TestSteadyStateAllocationsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	p := vectorPhasedProgram(t)
	measure := func(mk func() core.Manager, n uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(p, Config{
				Design:          arch.Server(),
				Manager:         mk(),
				Phase:           smallPhaseConfig(),
				MaxTranslations: n,
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	managers := []struct {
		name string
		mk   func() core.Manager
	}{
		{"full-power", func() core.Manager { return core.AlwaysOn() }},
		{"powerchop", func() core.Manager { return core.MustPowerChop(core.DefaultConfig()) }},
		{"bpu-toggler", func() core.Manager { return &bpuToggler{} }},
	}
	for _, mc := range managers {
		short := measure(mc.mk, 1000)
		long := measure(mc.mk, 16000)
		if grew := long - short; grew > 16 {
			t.Errorf("%s: allocations grew by %.0f (%.0f -> %.0f) over a 16x longer run; the hot loop allocates",
				mc.name, grew, short, long)
		}
	}
}
