package sim

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/obs"
	"powerchop/internal/obs/alert"
	"powerchop/internal/obs/runlog"
	"powerchop/internal/obs/span"
	"powerchop/internal/obs/tsdb"
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

// BenchmarkObserverOverhead measures what each observer costs a
// PowerChop run of bzip2, against one shared baseline (none): the no-op
// tracer, an in-memory ring and a JSONL writer to io.Discard (tracing
// off must not tax the simulation); a request→sim span tree on a JSONL
// sink, alone and with a run-history record per run (spans sit at run
// granularity, never inside the simulator loop); the decision-provenance
// auditor with the metrics collector that hosts its histograms (what
// `powerchop explain` pays over `powerchop run`); and telemetry ingest
// into a default store, alone, stacked on a ring (the serve monitor's
// shape) and with the default alert ruleset ticking every millisecond.
func BenchmarkObserverOverhead(b *testing.B) {
	bench, err := workload.ByName("bzip2")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.MustBuild()
	journal, err := runlog.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	telemetry := func(cfg *Config, tracer obs.Tracer) *tsdb.Store {
		ts := tsdb.NewStore(tsdb.DefaultConfig())
		cfg.Tracer = obs.Multi(ts.Ingestor(), tracer)
		return ts
	}
	spans := func(cfg *Config) *span.Span {
		ctx, root := span.Root(context.Background(), obs.NewJSONL(io.Discard),
			"request", span.NewRequestID(), "route=bench")
		cfg.Context = ctx
		return root
	}
	// Each case wires its observer into the run's config and returns
	// what finishes it after the run, or nil. fired holds the alerts the
	// tsdb+alerts case's last run fired: the default ruleset must stay
	// quiet on a healthy run, so fired/op should read 0.
	var fired uint64
	cases := []struct {
		name   string
		attach func(cfg *Config) (finish func(*Result))
	}{
		{"none", func(*Config) func(*Result) { return nil }},
		{"nop", func(cfg *Config) func(*Result) { cfg.Tracer = obs.Nop{}; return nil }},
		{"ring", func(cfg *Config) func(*Result) { cfg.Tracer = obs.NewRing(4096); return nil }},
		{"jsonl", func(cfg *Config) func(*Result) { cfg.Tracer = obs.NewJSONL(io.Discard); return nil }},
		{"spans", func(cfg *Config) func(*Result) {
			root := spans(cfg)
			return func(*Result) { root.End() }
		}},
		{"spans+runlog", func(cfg *Config) func(*Result) {
			start, root := time.Now(), spans(cfg)
			return func(*Result) {
				root.End()
				if err := journal.Append(runlog.Record{
					Kind: "run", Name: "bzip2", SpanID: root.ID(),
					DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
				}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"audit+metrics", func(cfg *Config) func(*Result) {
			cfg.Audit, cfg.Metrics = true, true
			return func(res *Result) {
				if res.Audit == nil {
					b.Fatal("audit trail missing")
				}
			}
		}},
		{"tsdb", func(cfg *Config) func(*Result) { telemetry(cfg, nil); return nil }},
		{"tsdb+ring", func(cfg *Config) func(*Result) { telemetry(cfg, obs.NewRing(4096)); return nil }},
		{"tsdb+alerts", func(cfg *Config) func(*Result) {
			ev, err := alert.New(alert.Config{Rules: alert.DefaultRules(), Store: telemetry(cfg, nil)})
			if err != nil {
				b.Fatal(err)
			}
			stop := ev.Start(time.Millisecond)
			return func(*Result) { stop(); fired = ev.FiredTotal() }
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var insns uint64
			for i := 0; i < b.N; i++ {
				cfg := Config{
					Design:          arch.Server(),
					Manager:         core.MustPowerChop(core.DefaultConfig()),
					MaxTranslations: 50000,
				}
				finish := c.attach(&cfg)
				res, err := Run(p, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if finish != nil {
					finish(res)
				}
				insns = res.GuestInsns
			}
			b.ReportMetric(float64(insns), "insns/op")
			if c.name == "tsdb+alerts" {
				b.ReportMetric(float64(fired), "fired/op")
			}
		})
	}
}
