package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/obs/span"
	"powerchop/internal/rescache"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// TestResultBatchMatchesResult pins the runner's batched path to the
// solo path: every lane of a ResultSet — policy templates, and a
// duplicate lane sharing a flight — must be byte-identical to the
// corresponding one-lane ResultSet from an independent runner, and the
// duplicate must not cost an extra simulation.
func TestResultBatchMatchesResult(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lanes := []Lane{
		fullPower,
		powerChop,
		timeout,
		fullPower, // duplicate: must await lane 0's flight
	}

	batchRunner := NewParallelRunner(0.05, 0)
	set, err := batchRunner.ResultSet(ctx, []workload.Benchmark{b}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	results := set[0]
	if len(results) != len(lanes) {
		t.Fatalf("got %d results for %d lanes", len(results), len(lanes))
	}
	if n := batchRunner.Simulations(); n != 3 {
		t.Errorf("batch ran %d simulations, want 3 (duplicate lane deduped)", n)
	}

	soloRunner := NewParallelRunner(0.05, 0)
	solo := make([]any, len(lanes))
	for i, lane := range lanes {
		if solo[i], err = result(soloRunner, b, lane); err != nil {
			t.Fatalf("lane %d solo: %v", i, err)
		}
	}
	for i := range lanes {
		want, err := json.Marshal(solo[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(results[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("lane %d: batched result differs from solo", i)
		}
	}
	if results[0] != results[3] {
		t.Error("duplicate lanes resolved to different results")
	}

	// A second batch is served entirely by singleflight memory: no new
	// simulations.
	againSet, err := batchRunner.ResultSet(ctx, []workload.Benchmark{b}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	again := againSet[0]
	if n := batchRunner.Simulations(); n != 3 {
		t.Errorf("warm batch re-simulated: %d simulations", n)
	}
	for i := range lanes {
		if again[i] != results[i] {
			t.Errorf("lane %d: warm batch returned a different result", i)
		}
	}
}

// TestResultBatchSolo pins Batch=1 (batching disabled) to the same
// results via the per-lane solo fallback.
func TestResultBatchSolo(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lanes := []Lane{fullPower, timeout}

	batched := NewParallelRunner(0.05, 0)
	soloed := NewParallelRunner(0.05, 0)
	soloed.Batch = 1

	bset, err := batched.ResultSet(ctx, []workload.Benchmark{b}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	sset, err := soloed.ResultSet(ctx, []workload.Benchmark{b}, lanes)
	if err != nil {
		t.Fatal(err)
	}
	br, sr := bset[0], sset[0]
	for i := range lanes {
		want, err := json.Marshal(br[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(sr[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("lane %d: Batch=1 result differs from batched", i)
		}
	}
}

// TestPolicyZooBatchesPerBenchmark pins the zoo's run set to one batched
// group per benchmark: on a two-job runner its 29 × 6 cold lanes form 29
// six-lane groups, not 58 three-lane ones. Spans are captured on a root
// context, because a runner Tracer would make every lane run alone.
func TestPolicyZooBatchesPerBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	const capacity = 1 << 12
	ring := obs.NewRing(capacity)
	ctx, root := span.Root(context.Background(), ring, "test", "")
	if _, err := PolicyZoo(ctx, NewParallelRunner(0.02, 2)); err != nil {
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
			if !strings.HasSuffix(e.Detail, " lanes=6") {
				t.Errorf("group %q, want six lanes", e.Detail)
			}
			groups++
		case "benchmark":
			solo++
		}
	}
	if want := len(workload.All()); groups != want || solo != 0 {
		t.Errorf("zoo ran %d batched groups and %d solo runs, want %d and 0", groups, solo, want)
	}
}

// TestTimeSeriesFiguresBatch pins Figures 2 and 3 to one run set each:
// on a one-job runner each figure's two sampled lanes form one two-lane
// group.
func TestTimeSeriesFiguresBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	ring := obs.NewRing(1 << 10)
	ctx, root := span.Root(context.Background(), ring, "test", "")
	r := NewParallelRunner(0.02, 1)
	if _, err := Figure2(ctx, r); err != nil {
		t.Fatal(err)
	}
	if _, err := Figure3(ctx, r); err != nil {
		t.Fatal(err)
	}
	root.End()
	var groups []string
	for _, e := range ring.Events() {
		if e.Kind == obs.KindSpanBegin && (e.Unit == "benchbatch" || e.Unit == "benchmark") {
			groups = append(groups, e.Unit+" "+e.Detail)
		}
	}
	want := []string{"benchbatch bench=msn lanes=2", "benchbatch bench=GemsFDTD lanes=2"}
	if strings.Join(groups, "; ") != strings.Join(want, "; ") {
		t.Errorf("groups %q, want %q", groups, want)
	}
}

// TestResultSetWarmCache drives a run set's parallel cache lookups: a
// fresh two-job runner over a cache that a cold call filled must serve
// every lane from it, simulate nothing, and return the cold results.
func TestResultSetWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	var bs []workload.Benchmark
	for _, name := range []string{"gobmk", "namd", "libquantum"} {
		b, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	runs := []Lane{fullPower, powerChop}
	dir := t.TempDir()
	render := func() ([][]*sim.Result, *Runner, *rescache.Cache) {
		r := NewParallelRunner(0.02, 2)
		r.Cache = rescache.New(dir, nil)
		set, err := r.ResultSet(context.Background(), bs, runs)
		if err != nil {
			t.Fatal(err)
		}
		return set, r, r.Cache
	}
	cold, _, _ := render()
	warm, r, c := render()
	if n := r.Simulations(); n != 0 {
		t.Errorf("warm run set simulated %d lanes", n)
	}
	if s := c.Stats(); s.Hits != uint64(len(bs)*len(runs)) {
		t.Errorf("warm run set: %+v, want %d hits", s, len(bs)*len(runs))
	}
	for i := range bs {
		for j := range runs {
			want, err := json.Marshal(cold[i][j])
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(warm[i][j])
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Errorf("%s lane %d: warm result differs from cold", bs[i].Name, j)
			}
		}
	}
}
