package policy_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"powerchop/internal/arch"
	"powerchop/internal/obs"
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

// fuzzLane is one decoded lane: a registered policy, its parameters, its
// run budget and its observers.
type fuzzLane struct {
	spec   policy.Spec
	params policy.Params
	budget uint64
	// observe is 0 for an unobserved lane. Otherwise the lane carries
	// its own JSONL tracer, plus metrics when bit 0 is set and an audit
	// trail when bit 1 is.
	observe byte
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

// FuzzRunBatch is the lane engine's differential check over registered
// benchmarks: the fuzz bytes pick a benchmark, a design and 2–8 lanes,
// each a registered policy with in-bounds parameters and its own budget,
// then one observer byte per lane. Every lane of one RunBatch call must
// JSON-equal its one-lane Run with the same observers, and write the same
// trace bytes.
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
		for i := range lanes {
			lanes[i].observe = in.next() % 4
		}
		// cfg builds a lane's configuration with fresh observers; flush
		// returns the lane's trace bytes once it has run.
		cfg := func(l fuzzLane) (c sim.Config, flush func() string) {
			m, err := l.spec.Manager(l.params)
			if err != nil {
				t.Fatalf("%s %v: %v", l.spec.Name, l.params, err)
			}
			c = sim.Config{
				Design:          design,
				Manager:         m,
				Phase:           phase.Config{Capacity: 64, WindowSize: 50, SignatureLen: 4},
				MaxTranslations: l.budget,
			}
			flush = func() string { return "" }
			if l.observe != 0 {
				var buf bytes.Buffer
				jsonl := obs.NewJSONL(&buf)
				c.Tracer, c.Metrics, c.Audit = jsonl, l.observe&1 != 0, l.observe&2 != 0
				flush = func() string {
					if err := jsonl.Flush(); err != nil {
						t.Fatal(err)
					}
					return buf.String()
				}
			}
			return c, flush
		}
		encode := func(r *sim.Result) string {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		cfgs := make([]sim.Config, len(lanes))
		flushes := make([]func() string, len(lanes))
		for i, l := range lanes {
			cfgs[i], flushes[i] = cfg(l)
		}
		batched, err := sim.RunBatch(p, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			c, flush := cfg(l)
			alone, err := sim.Run(p, c)
			if err != nil {
				t.Fatal(err)
			}
			if encode(batched[i]) != encode(alone) {
				t.Errorf("%s on %s: lane %d (%s %v, %d executions, observers %d) differs from its one-lane run",
					p.Name, design.Name, i, l.spec.Name, l.params, l.budget, l.observe)
			}
			if flushes[i]() != flush() {
				t.Errorf("%s on %s: lane %d (%s %v, %d executions, observers %d) traces differently from its one-lane run",
					p.Name, design.Name, i, l.spec.Name, l.params, l.budget, l.observe)
			}
		}
	})
}
