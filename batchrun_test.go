package powerchop

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
	"powerchop/internal/policy"
	"powerchop/internal/rescache"
)

// mustJSON renders a value for byte-level comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunBatchMatchesRun is the public batch contract: every lane of a
// RunBatch returns a Report byte-identical to the corresponding solo
// Run, across different policies and parameter assignments sharing one
// batched simulation.
func TestRunBatchMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark under several managers")
	}
	lanes := []Options{
		{Manager: ManagerPowerChop, Passes: 0.3},
		{Manager: ManagerTimeout, Passes: 0.3},
		{Manager: ManagerFullPower, Passes: 0.3},
		{Manager: ManagerEnergyMin, Passes: 0.3},
		{Manager: ManagerPowerChop, Passes: 0.3, Params: map[string]float64{"vpu": 0.02}},
	}
	batched, err := RunBatch("bzip2", lanes)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(lanes) {
		t.Fatalf("got %d reports for %d lanes", len(batched), len(lanes))
	}
	for i, o := range lanes {
		solo, err := Run("bzip2", o)
		if err != nil {
			t.Fatalf("lane %d solo: %v", i, err)
		}
		if mustJSON(t, batched[i]) != mustJSON(t, solo) {
			t.Errorf("lane %d (%s): batched report differs from solo Run", i, o.Manager)
		}
	}
}

// TestRunBatchSharesCacheWithRun checks the cache-key contract: a batch
// files exactly one entry per lane under Run's keys, so solo Runs hit
// them (and vice versa) without re-simulating.
func TestRunBatchSharesCacheWithRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark under two managers")
	}
	cache := rescache.New(t.TempDir(), nil)
	lanes := []Options{
		{Manager: ManagerPowerChop, Passes: 0.3, Cache: cache},
		{Manager: ManagerMinPower, Passes: 0.3, Cache: cache},
	}
	batched, err := RunBatch("libquantum", lanes)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Stores != 2 || st.Hits != 0 {
		t.Fatalf("cold batch: stats %+v, want 2 stores and no hits", st)
	}
	for i, o := range lanes {
		solo, err := Run("libquantum", o)
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, batched[i]) != mustJSON(t, solo) {
			t.Errorf("lane %d: cached solo Run differs from batched report", i)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Stores != 2 {
		t.Fatalf("solo Runs missed the batch's entries: %+v", st)
	}
	// A warm batch serves every lane from the cache.
	again, err := RunBatch("libquantum", lanes)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 4 || st.Stores != 2 {
		t.Fatalf("warm batch re-simulated: %+v", st)
	}
	for i := range lanes {
		if mustJSON(t, again[i]) != mustJSON(t, batched[i]) {
			t.Errorf("lane %d: warm batch report differs", i)
		}
	}
}

// TestRunBatchSharedTraceWriter checks lanes sharing one TraceWriter
// write exactly the bytes of serial Runs: each lane's JSONL stream is
// flushed when its run ends, so the streams never interleave and every
// line parses.
func TestRunBatchSharedTraceWriter(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark four times")
	}
	var batched, serial bytes.Buffer
	lanes := []Options{
		{Manager: ManagerPowerChop, Passes: 0.5, TraceWriter: &batched},
		{Manager: ManagerTimeout, Passes: 0.5, TraceWriter: &batched},
	}
	if _, err := RunBatch("gobmk", lanes); err != nil {
		t.Fatal(err)
	}
	for _, o := range lanes {
		o.TraceWriter = &serial
		if _, err := Run("gobmk", o); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched.Bytes(), serial.Bytes()) {
		t.Errorf("batched trace (%d bytes) differs from serial Runs' (%d bytes)", batched.Len(), serial.Len())
	}
	lines := bytes.Split(bytes.TrimSuffix(batched.Bytes(), []byte("\n")), []byte("\n"))
	for i, line := range lines {
		if !json.Valid(line) {
			t.Fatalf("trace line %d of %d does not parse: %.80q", i+1, len(lines), line)
		}
	}
}

// TestProgressKindIsFingerprint checks root lanes report progress under
// their policy fingerprint: an N-point Tune gives N+1 distinct kinds per
// benchmark (the baseline and every point), each done exactly once, so a
// board keyed by benchmark and kind shows one row per lane.
func TestProgressKindIsFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a small parameter grid on two benchmarks")
	}
	var mu sync.Mutex
	done := map[string]int{}
	progress := func(p RunProgress) {
		if p.State == StateDone {
			mu.Lock()
			done[p.Benchmark+"/"+p.Kind]++
			mu.Unlock()
		}
	}
	benchmarks := []string{"libquantum", "namd"}
	res, err := Tune(TuneOptions{
		Policy:     ManagerPowerChop,
		Benchmarks: benchmarks,
		Grid:       map[string][]float64{"vpu": {0.001, 0.005, 0.02}, "bpu": {}, "mlc1": {}, "mlc2": {}},
		Options:    Options{Passes: 0.3, Progress: progress},
	})
	if err != nil {
		t.Fatal(err)
	}
	full, err := PolicyFingerprint(ManagerFullPower, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{full}
	for _, pt := range res.Points {
		want = append(want, pt.Fingerprint)
	}
	for _, b := range benchmarks {
		for _, kind := range want {
			if n := done[b+"/"+kind]; n != 1 {
				t.Errorf("%s/%s: %d done reports, want 1", b, kind, n)
			}
		}
	}
	if len(done) != len(benchmarks)*len(want) {
		t.Errorf("%d distinct kinds reported, want %d: %v", len(done), len(benchmarks)*len(want), done)
	}

	// A single Run reports its fingerprint too, not the manager's name.
	done = map[string]int{}
	if _, err := Run("libquantum", Options{Manager: ManagerTimeout, Passes: 0.3, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	timeout, err := PolicyFingerprint(ManagerTimeout, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done["libquantum/"+timeout] != 1 || len(done) != 1 {
		t.Errorf("timeout Run done reports %v, want one under %q", done, timeout)
	}
}

// TestCompareBatchedMatchesSolo pins Compare's batched serial path to
// the Batch=1 solo path.
func TestCompareBatchedMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a benchmark six times")
	}
	batched, err := Compare("libquantum", Options{Passes: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Compare("libquantum", Options{Passes: 0.3, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, batched) != mustJSON(t, solo) {
		t.Error("batched Compare differs from solo Compare")
	}
}

// TestTuneBatchedMatchesSolo pins the batched sweep to the solo sweep:
// identical points, frontier and fingerprints at any Batch setting.
func TestTuneBatchedMatchesSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a small parameter grid twice")
	}
	sweep := func(batch int) *TuneResult {
		t.Helper()
		res, err := Tune(TuneOptions{
			Policy:     ManagerTimeout,
			Benchmarks: []string{"libquantum"},
			Grid:       map[string][]float64{"idle-cycles": {10000, 20000}},
			Options:    Options{Passes: 0.3, Batch: batch},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if mustJSON(t, sweep(0)) != mustJSON(t, sweep(1)) {
		t.Error("batched Tune differs from solo Tune")
	}
}

// TestTuneGridDedupe covers the sweep-grid deduplication: defaults
// sitting on a bound collapse their clamped neighbours, and explicit
// override lists with repeated values contribute each value once.
func TestTuneGridDedupe(t *testing.T) {
	spec := policy.Spec{
		Name: "grid-test",
		Params: []policy.Param{
			{Name: "lo-bound", Default: 1, Min: 1, Max: 8}, // half clamps onto the default
			{Name: "hi-bound", Default: 4, Min: 0, Max: 4}, // double clamps onto the default
			{Name: "zero", Default: 0, Min: 0, Max: 1},     // collapses to one point
		},
	}
	if got := defaultGrid(spec.Params[0]); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("lo-bound default grid = %v, want [1 2]", got)
	}
	if got := defaultGrid(spec.Params[1]); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("hi-bound default grid = %v, want [2 4]", got)
	}
	if got := defaultGrid(spec.Params[2]); len(got) != 1 || got[0] != 0 {
		t.Errorf("zero default grid = %v, want [0]", got)
	}
	points, err := tuneGrid(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Errorf("default sweep has %d points, want 4 (2x2x1)", len(points))
	}
	// Explicit overrides with repeats: each distinct value counts once,
	// first occurrence order preserved.
	points, err = tuneGrid(spec, map[string][]float64{
		"lo-bound": {5, 5, 3, 5},
		"hi-bound": {2},
		"zero":     {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("override sweep has %d points, want 2", len(points))
	}
	if points[0]["lo-bound"] != 5 || points[1]["lo-bound"] != 3 {
		t.Errorf("override axis order not preserved: %v", points)
	}
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			same := true
			for k, v := range points[i] {
				if points[j][k] != v {
					same = false
					break
				}
			}
			if same {
				t.Errorf("points %d and %d are duplicates: %v", i, j, points[i])
			}
		}
	}
}

// TestRunBatchLaneError checks that an invalid lane fails the whole
// batch with the lane identified, before any simulation runs.
func TestRunBatchLaneError(t *testing.T) {
	_, err := RunBatch("bzip2", []Options{
		{Manager: ManagerFullPower, Passes: 0.1},
		{Manager: "no-such-policy", Passes: 0.1},
	})
	if err == nil {
		t.Fatal("invalid lane accepted")
	}
}

// TestHeadlineBatchesPerBenchmark pins Headline's run set to one batched
// group per benchmark: a cold render on two jobs drives each benchmark's
// full-power, PowerChop and min-power runs from one walk (29 three-lane
// groups), and the power comparison reuses them, so no run simulates
// alone. Spans are captured on a root context, because a tracer on the
// runner would make every lane run alone.
func TestHeadlineBatchesPerBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped with -short")
	}
	const capacity = 1 << 12
	ring := obs.NewRing(capacity)
	ctx, root := span.Root(context.Background(), ring, "test", "")
	if _, err := NewFigureRunner(0.02, WithJobs(2)).HeadlineContext(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()
	if ring.Total() > capacity {
		t.Fatalf("span ring overflowed: %d events", ring.Total())
	}
	groups, solo := 0, 0
	for _, e := range ring.Events() {
		if e.Kind != obs.KindSpanBegin {
			continue
		}
		switch e.Unit {
		case "benchbatch":
			if !strings.HasSuffix(e.Detail, " lanes=3") {
				t.Errorf("group %q, want three lanes", e.Detail)
			}
			groups++
		case "benchmark":
			solo++
		}
	}
	if groups != 29 || solo != 0 {
		t.Errorf("cold headline ran %d batched groups and %d solo runs, want 29 and 0", groups, solo)
	}
}

// TestTuneGridCeiling checks that a sweep above policy.MaxGridPoints is
// rejected before its points are built: one axis too long, and axes
// whose product is too large, fail with few allocations and no
// simulation.
func TestTuneGridCeiling(t *testing.T) {
	long := make([]float64, policy.MaxGridPoints+1)
	for i := range long {
		long[i] = float64(i)
	}
	wide := long[:40] // 40^4 points over PowerChop's four thresholds
	for name, grid := range map[string]map[string][]float64{
		"axis":    {"vpu": long},
		"product": {"vpu": wide, "bpu": wide, "mlc1": wide, "mlc2": wide},
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			_, err = Tune(TuneOptions{Policy: ManagerPowerChop, Grid: grid})
		})
		if err == nil || !strings.Contains(err.Error(), "above the limit") {
			t.Errorf("%s: err = %v, want the grid limit", name, err)
		}
		if allocs > 1000 {
			t.Errorf("%s: rejecting the grid took %.0f allocations", name, allocs)
		}
	}
}
