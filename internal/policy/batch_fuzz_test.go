package policy_test

import (
	"encoding/json"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/phase"
	"powerchop/internal/policy"
	"powerchop/internal/program"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// fuzzInput hands out the fuzz bytes one at a time, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzLane is one decoded lane: a registered policy, its parameters and
// its run budget.
type fuzzLane struct {
	spec   policy.Spec
	params policy.Params
	budget uint64
}

// decodeLane reads one lane. A first byte with the high bit set repeats
// an earlier lane's policy and parameters, so lanes share gating
// histories; otherwise it picks a policy, and one byte per parameter
// keeps its default (0) or places it within its bounds. Parameters that
// break a cross-parameter rule fall back to the defaults. A last byte
// picks a budget of 200 to 3800 region executions.
func decodeLane(in *fuzzInput, specs []policy.Spec, prev []fuzzLane) fuzzLane {
	var l fuzzLane
	if b := in.next(); b&0x80 != 0 && len(prev) > 0 {
		src := prev[int(b&0x7f)%len(prev)]
		l.spec, l.params = src.spec, src.params
	} else {
		l.spec = specs[int(b)%len(specs)]
		l.params = policy.Params{}
		for _, prm := range l.spec.Params {
			if v := in.next(); v != 0 {
				l.params[prm.Name] = prm.Min + (prm.Max-prm.Min)*float64(v-1)/254
			}
		}
		if _, err := l.spec.Manager(l.params); err != nil {
			l.params = nil
		}
	}
	l.budget = 200 + 300*uint64(in.next()%13)
	return l
}

// FuzzRunBatch is the batched engine's differential check over registered
// benchmarks: the fuzz bytes pick a benchmark, a design and 2–8 lanes,
// each a registered policy with in-bounds parameters and its own budget,
// and every lane of one RunBatch call must JSON-equal its solo Run.
func FuzzRunBatch(f *testing.F) {
	specs := policy.All()
	benches := workload.All()
	progs := make([]*program.Program, len(benches))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		bi := int(in.next()) % len(benches)
		if progs[bi] == nil {
			progs[bi] = benches[bi].MustBuild()
		}
		p := progs[bi]
		design := arch.Server()
		if in.next()&1 != 0 {
			design = arch.Mobile()
		}
		lanes := make([]fuzzLane, 2+int(in.next())%7)
		for i := range lanes {
			lanes[i] = decodeLane(&in, specs, lanes[:i])
		}
		cfg := func(l fuzzLane) sim.Config {
			m, err := l.spec.Manager(l.params)
			if err != nil {
				t.Fatalf("%s %v: %v", l.spec.Name, l.params, err)
			}
			return sim.Config{
				Design:          design,
				Manager:         m,
				Phase:           phase.Config{Capacity: 64, WindowSize: 50, SignatureLen: 4},
				MaxTranslations: l.budget,
			}
		}
		cfgs := make([]sim.Config, len(lanes))
		for i, l := range lanes {
			cfgs[i] = cfg(l)
		}
		batched, err := sim.RunBatch(p, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			solo, err := sim.Run(p, cfg(l))
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(solo)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(batched[i])
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("%s on %s: lane %d (%s %v, %d executions) differs from its solo run",
					p.Name, design.Name, i, l.spec.Name, l.params, l.budget)
			}
		}
	})
}
