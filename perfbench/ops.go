package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"powerchop"
)

// newRand is every workload's source of inputs: the same seed gives the
// same inputs, and each workload draws from its own stream.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 1469598103934665603 // FNV-1a of the stream name
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// sweepOp is one cold Tune call: a benchmark, a policy and a grid over
// one of the policy's parameters, the others pinned to their defaults.
type sweepOp struct {
	Bench  string
	Policy string
	Param  string
	Values []float64
	// Check is the index of the grid point verified against solo Runs.
	Check int
}

// lanes is the number of simulations the op drives: one per grid point
// plus the full-power baseline.
func (o sweepOp) lanes() int { return len(o.Values) + 1 }

// sweepAxis is a parameter range the sweep draws grid values from. Each
// range lies inside the parameter's registered bounds and keeps the
// policy's own constraints (mlc2 ≤ mlc1 at mlc2's default).
type sweepAxis struct {
	param  string
	lo, hi float64
}

// sweepPolicies spans the registry: powerchop lanes gate and clone
// their MLC, timeout lanes stay pristine, darkgates and agilewatts are
// the two policies modelled on related work.
var sweepPolicies = []string{"powerchop", "timeout", "darkgates", "agilewatts"}

var sweepAxes = map[string][]sweepAxis{
	"powerchop":  {{"vpu", 0.0005, 0.05}, {"bpu", 0.0005, 0.05}, {"mlc1", 0.001, 0.05}},
	"timeout":    {{"idle-cycles", 1000, 1e6}},
	"darkgates":  {{"horizon-windows", 1, 256}, {"margin", 0.1, 10}},
	"agilewatts": {{"vpu-idle", 0.0001, 0.05}, {"bpu-idle", 0.0005, 0.05}, {"mlc-idle", 0.0005, 0.05}},
}

// sweepGridSizes is the cycle of grid sizes. The sizes sit on both
// sides of the 16-lane batch cap: with the full-power baseline, 15, 12
// and 14 points fit one walk, while 17, 16 and 18 points need two.
// Keeping every op near the cap keeps each benchmark's share of the
// work alike.
var sweepGridSizes = []int{15, 17, 12, 16, 18, 14}

// sweepOps draws n ops. The benchmarks are a fixed spread of n of the
// 29 (evenly spaced in name order), and policies and grid sizes cycle
// over them the same way for every seed, so every seed drives the same
// lanes of the same benchmarks and policies. Per-lane cost differs
// twofold between benchmarks and between policies: when the seed also
// chose which benchmark got which policy and size, the seeds' runs
// differed in work alone by up to 17%. The seed draws each op's swept
// parameter, its values and its checked point, and the order of the
// ops.
func sweepOps(seed uint64, n int) []sweepOp {
	r := newRand(seed, "sweep")
	benches := sweepBenchmarks(n)
	ops := make([]sweepOp, n)
	for i := range ops {
		pol := sweepPolicies[i%len(sweepPolicies)]
		axes := sweepAxes[pol]
		ax := axes[r.IntN(len(axes))]
		size := sweepGridSizes[i%len(sweepGridSizes)]
		ops[i] = sweepOp{
			Bench:  benches[i],
			Policy: pol,
			Param:  ax.param,
			Values: drawValues(r, ax, size),
			Check:  r.IntN(size),
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// sweepBenchmarks spreads n picks evenly over the sorted benchmarks,
// cycling through all of them when n exceeds their number.
func sweepBenchmarks(n int) []string {
	all := powerchop.SortedBenchmarks()
	out := make([]string, n)
	for i := range out {
		out[i] = all[(i*len(all)/min(n, len(all)))%len(all)]
	}
	return out
}

// drawValues draws n distinct log-uniform values in the axis range,
// rounded to four significant digits.
func drawValues(r *rand.Rand, ax sweepAxis, n int) []float64 {
	seen := map[float64]bool{}
	out := make([]float64, 0, n)
	for len(out) < n {
		v := math.Exp(math.Log(ax.lo) + r.Float64()*(math.Log(ax.hi)-math.Log(ax.lo)))
		v, _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 4, 64), 64)
		if v < ax.lo || v > ax.hi || seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// serveManagers are the managers the serve mix draws, every registered
// policy at its default parameters.
func serveManagers() []string {
	names := powerchop.PolicyNames()
	sort.Strings(names)
	return names
}

// Declared shares of the serve mix; each run holds these shares of its
// requests (rounded).
const (
	// serveAbandonShare of requests, one every 1/serveAbandonShare, are
	// given up by their client after serveAbandonAfter, which is shorter
	// than any simulation.
	serveAbandonShare = 0.2
	// serveRepeatShare of requests repeat a pair drawn earlier, picked
	// uniformly among the pairs drawn so far, so the first pairs are the
	// most popular. The rest ask for a pair not drawn before. The share
	// is an assumption, not measured traffic (NOTES.md).
	serveRepeatShare = 0.5
)

// serveRequest is one /api/run call of the serve mix.
type serveRequest struct {
	Bench, Manager string
	Abandon        bool
	// Repeat marks a pair that an earlier request of the mix drew.
	Repeat bool
}

func (q serveRequest) pair() string { return q.Bench + "/" + q.Manager }

// serveMix draws n requests.
func serveMix(seed uint64, n int) []serveRequest {
	r := newRand(seed, "serve")
	var fresh []string
	for _, b := range powerchop.SortedBenchmarks() {
		for _, m := range serveManagers() {
			fresh = append(fresh, b+"/"+m)
		}
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	// Abandoned requests are evenly spaced from a seeded offset. At
	// seeded positions they bunch up by chance, and the abandoned
	// simulations still running at once set the server's peak memory
	// (NOTES.md).
	period := int(math.Round(1 / serveAbandonShare))
	abandon := map[int]bool{}
	for i := r.IntN(period); i < n; i += period {
		abandon[i] = true
	}
	// The first request cannot repeat, so repeats go among the rest.
	repeat := map[int]bool{}
	if n > 1 {
		k := min(int(math.Round(float64(n)*serveRepeatShare)), n-1)
		for _, i := range r.Perm(n - 1)[:k] {
			repeat[i+1] = true
		}
	}
	mix := make([]serveRequest, n)
	var drawn []string
	for i := range mix {
		q := serveRequest{Abandon: abandon[i], Repeat: repeat[i] || len(fresh) == 0}
		var p string
		if q.Repeat {
			p = drawn[r.IntN(len(drawn))]
		} else {
			p, fresh = fresh[0], fresh[1:]
			drawn = append(drawn, p)
		}
		q.Bench, q.Manager = splitPair(p)
		mix[i] = q
	}
	return mix
}

// splitPair splits a "bench/manager" key.
func splitPair(p string) (bench, manager string) {
	bench, manager, _ = strings.Cut(p, "/")
	return bench, manager
}
