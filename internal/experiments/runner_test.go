package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"powerchop/internal/core"
	"powerchop/internal/sim"
	"powerchop/internal/workload"
)

// figureTemplates is every lane template the figures submit.
var figureTemplates = []Lane{
	fullPower, powerChop, minPower, timeout,
	smallBPU, mlcOneWay, chopVPU, chopBPU, chopMLC,
}

// bogus is a template whose manager never builds.
var bogus = Lane{ManagerKey: "bogus", Manager: func() (core.Manager, error) {
	return nil, errors.New("bogus setup")
}}

// result runs one template on the benchmark through ResultSet.
func result(r *Runner, b workload.Benchmark, l Lane) (*sim.Result, error) {
	set, err := r.ResultSet(context.Background(), []workload.Benchmark{b}, []Lane{l})
	if err != nil {
		return nil, err
	}
	return set[0][0], nil
}

// TestResultSingleflight is the regression test for the duplicate-run
// hole: concurrent ResultSet calls for one key must simulate exactly once,
// with every caller receiving the same cached result.
func TestResultSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	r := NewParallelRunner(0.05, 8)
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	results := make([]interface{}, callers)
	errs := make([]error, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize overlap
			res, err := result(r, b, fullPower)
			results[i], errs[i] = res, err
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result object", i)
		}
	}
	if n := r.Simulations(); n != 1 {
		t.Fatalf("%d concurrent ResultSet calls ran %d simulations, want 1", callers, n)
	}
}

// TestResultGoldenSerialVsParallel checks the parallel runner computes
// exactly the serial runner's results: every figure template on one
// benchmark, launched concurrently on a parallel runner, must deep-equal
// the same runs done one at a time.
func TestResultGoldenSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}

	serial := NewParallelRunner(0.05, 1)
	golden := make(map[string]interface{}, len(figureTemplates))
	for _, l := range figureTemplates {
		res, err := result(serial, b, l)
		if err != nil {
			t.Fatal(err)
		}
		golden[l.ManagerKey] = res
	}

	par := NewParallelRunner(0.05, 8)
	var wg sync.WaitGroup
	got := make([]interface{}, len(figureTemplates))
	errs := make([]error, len(figureTemplates))
	for i, l := range figureTemplates {
		wg.Add(1)
		go func(i int, l Lane) {
			defer wg.Done()
			got[i], errs[i] = result(par, b, l)
		}(i, l)
	}
	wg.Wait()

	for i, l := range figureTemplates {
		if errs[i] != nil {
			t.Fatalf("%s: %v", l.ManagerKey, errs[i])
		}
		if !reflect.DeepEqual(got[i], golden[l.ManagerKey]) {
			t.Errorf("%s: parallel result differs from serial", l.ManagerKey)
		}
	}
	if n := par.Simulations(); n != uint64(len(figureTemplates)) {
		t.Errorf("parallel runner ran %d simulations, want %d", n, len(figureTemplates))
	}
}

// TestResultErrorNotCached verifies failed flights are dropped so a later
// call retries, preserving the serial cache-on-success semantics.
func TestResultErrorNotCached(t *testing.T) {
	r := NewParallelRunner(1, 2)
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := result(r, b, bogus); err == nil {
		t.Fatal("bogus setup ran")
	}
	if _, err := result(r, b, bogus); err == nil {
		t.Fatal("bogus setup cached as a success")
	}
	if n := r.Simulations(); n != 0 {
		t.Fatalf("failed runs counted %d simulations", n)
	}
}
