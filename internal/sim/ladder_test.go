package sim

import (
	"fmt"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/phase"
	"powerchop/internal/program"
	"powerchop/internal/workload"
)

// BenchmarkLaneGroup measures what a lane group costs as it widens:
// bzip2 on the server design, 50k region executions. Under the
// full-power and min-power managers, "lanes=1" (what Run executes) and
// "lanes=8" drive one and eight identical lanes through runGroup over a
// shared front-end, compiling the program per op as RunBatch does.
// Identical lanes share every MLC and predictor node, so "mixed/lanes=8"
// adds a group whose histories differ: one full-power lane and seven
// PowerChop lanes at distinct MLC and BPU thresholds. One op of an
// eight-lane case is eight simulations. See EXPERIMENTS.md "Batched
// sweep speedup" for the recorded medians.
func BenchmarkLaneGroup(b *testing.B) {
	bench, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.MustBuild()
	cfgOf := func(m core.Manager) Config {
		return Config{
			Design:          arch.Server(),
			Manager:         m,
			Phase:           phase.DefaultConfig(),
			MaxTranslations: 50000,
		}
	}
	group := func(b *testing.B, mk func(j int) core.Manager, n int) {
		for i := 0; i < b.N; i++ {
			cfgs := make([]Config, n)
			lanes := make([]int, n)
			for j := range cfgs {
				cfgs[j], lanes[j] = cfgOf(mk(j)), j
			}
			compiled := program.CompileAll(p)
			if _, err := runGroup(p, keyOf(&cfgs[0]), compiled, cfgs, lanes, make([]*Result, n)); err != nil {
				b.Fatal(err)
			}
		}
	}
	managers := []struct {
		name string
		mk   func() core.Manager
	}{
		{"full-power", func() core.Manager { return core.AlwaysOn() }},
		{"min-power", func() core.Manager { return core.MinPower() }},
	}
	for _, m := range managers {
		for _, n := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/lanes=%d", m.name, n), func(b *testing.B) {
				group(b, func(int) core.Manager { return m.mk() }, n)
			})
		}
	}
	b.Run("mixed/lanes=8", func(b *testing.B) {
		group(b, func(j int) core.Manager {
			if j == 0 {
				return core.AlwaysOn()
			}
			cfg := core.DefaultConfig()
			f := float64(int(1)<<j) / 8 // 0.25× to 16× the defaults
			cfg.Thresholds.BPU *= f
			cfg.Thresholds.MLC1 *= f
			cfg.Thresholds.MLC2 *= f
			return core.MustPowerChop(cfg)
		}, 8)
	})
}
