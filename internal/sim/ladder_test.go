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

// BenchmarkLaneGroup measures what the batched engine costs against a
// solo Run: bzip2 on the server design, 50k region executions, under the
// full-power and min-power managers. "solo" is one Run; "lanes=1" and
// "lanes=8" drive one and eight identical lanes through runGroup over a
// shared front-end, compiling the program per op as RunBatch does. One
// op of lanes=8 is eight simulations. See EXPERIMENTS.md "Batched sweep
// speedup" for the recorded medians and why solo Run keeps its own
// engine path.
func BenchmarkLaneGroup(b *testing.B) {
	bench, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.MustBuild()
	managers := []struct {
		name string
		mk   func() core.Manager
	}{
		{"full-power", func() core.Manager { return core.AlwaysOn() }},
		{"min-power", func() core.Manager { return core.MinPower() }},
	}
	for _, m := range managers {
		cfg := func() Config {
			return Config{
				Design:          arch.Server(),
				Manager:         m.mk(),
				Phase:           phase.DefaultConfig(),
				MaxTranslations: 50000,
			}
		}
		b.Run(m.name+"/solo", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(p, cfg()); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, n := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/lanes=%d", m.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cfgs := make([]Config, n)
					lanes := make([]int, n)
					for j := range cfgs {
						cfgs[j], lanes[j] = cfg(), j
					}
					compiled := program.CompileAll(p)
					if err := runGroup(p, keyOf(&cfgs[0]), compiled, cfgs, lanes, make([]*Result, n)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
