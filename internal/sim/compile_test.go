package sim

import (
	"reflect"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/core"
	"powerchop/internal/isa"
	"powerchop/internal/obs"
	"powerchop/internal/program"
)

// runNaive runs one lane through the original per-instruction walk over
// Region.Body instead of the compiled op stream. It reads the same
// front-end record a group lane reads, so it isolates the compiled
// kernel: the run-length encoding of scalar stretches and the shard and
// sample boundaries execScalarRun hoists out of them.
func runNaive(t *testing.T, p *program.Program, cfg Config) *Result {
	t.Helper()
	if err := cfg.prepare(); err != nil {
		t.Fatal(err)
	}
	compiled := program.CompileAll(p)
	fe, err := newFrontEnd(p, keyOf(&cfg), compiled)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newEngine(p, cfg, compiled)
	if err != nil {
		t.Fatal(err)
	}
	s.join(fe)
	boot := cfg.Manager.Boot()
	s.absorbDirective(boot)
	s.applyPolicy(boot.Policy)
	issueCycle := 1 / cfg.Design.IssueWidth
	for s.executed < cfg.MaxTranslations {
		rec := fe.record()
		s.executed++
		s.mlc.startExec()
		s.bpu.startExec(rec)
		s.executeNaive(rec.ri, issueCycle)
	}
	s.leave()
	return s.finish()
}

// executeNaive is executeRegion one instruction at a time.
func (s *engine) executeNaive(ri int, issueCycle float64) {
	tr, extra := s.btSys.Execute(ri)
	s.cycles += extra
	if s.tracer != nil {
		s.traceInstall(ri)
	}
	for _, inst := range s.prog.Regions[ri].Body {
		s.guestInsns++
		s.winInsns++
		s.shardInsns++
		switch inst.Kind {
		case isa.Scalar:
			s.uops++
			s.coreAccesses++
			s.cycles += issueCycle
		case isa.Vector:
			s.vpu.execVector(issueCycle)
		case isa.Branch:
			s.bpu.replayBranch(issueCycle)
		case isa.Load, isa.Store:
			s.mlc.replayMem()
		}
		s.postInst()
	}
	if tr != nil && s.htb.Record(tr.ID, uint64(tr.Insns)) {
		s.endWindow()
		s.reportProgress(false)
	}
}

// TestCompiledMatchesNaiveWalk pins the compiled-region fast path to the
// original per-instruction walk: the same program under the same manager
// must produce an identical Result and an identical event sequence
// whichever kernel runs. The naive walk survives only as this oracle, so
// any divergence is a bug in the compiler or the compiled kernel.
func TestCompiledMatchesNaiveWalk(t *testing.T) {
	managers := []struct {
		name string
		mk   func() core.Manager
	}{
		{"powerchop", func() core.Manager { return core.MustPowerChop(core.DefaultConfig()) }},
		{"timeout", func() core.Manager {
			m, err := core.NewTimeoutVPU(20000)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"full-power", func() core.Manager { return core.AlwaysOn() }},
	}
	for _, mc := range managers {
		t.Run(mc.name, func(t *testing.T) {
			run := func(naive bool) (*Result, []obs.Event) {
				p := vectorPhasedProgram(t)
				ring := obs.NewRing(1 << 16)
				cfg := Config{
					Design:          arch.Server(),
					Manager:         mc.mk(),
					Phase:           smallPhaseConfig(),
					MaxTranslations: 4000,
					SampleInterval:  2000,
					Tracer:          ring,
				}
				if naive {
					return runNaive(t, p, cfg), ring.Events()
				}
				r, err := Run(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return r, ring.Events()
			}
			compiled, compiledEvents := run(false)
			naive, naiveEvents := run(true)

			if compiled.Cycles != naive.Cycles {
				t.Errorf("cycles: compiled %v, naive %v", compiled.Cycles, naive.Cycles)
			}
			if !reflect.DeepEqual(compiled, naive) {
				t.Errorf("results diverge:\ncompiled %+v\nnaive    %+v", compiled, naive)
			}
			if len(compiledEvents) != len(naiveEvents) {
				t.Fatalf("event counts diverge: compiled %d, naive %d",
					len(compiledEvents), len(naiveEvents))
			}
			for i := range compiledEvents {
				if compiledEvents[i] != naiveEvents[i] {
					t.Fatalf("event %d diverges:\ncompiled %+v\nnaive    %+v",
						i, compiledEvents[i], naiveEvents[i])
				}
			}
		})
	}
}
