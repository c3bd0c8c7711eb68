package powerchop

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

// plainFigures renders the full figure set at smoke scale once per test
// process, serially and unobserved: the reference every figure-set
// identity test compares its variant render against.
var plainFigures = sync.OnceValues(func() ([]byte, error) {
	var buf bytes.Buffer
	err := NewFigureRunner(0.02, WithJobs(1)).RenderAll(&buf)
	return buf.Bytes(), err
})

// requirePlainFigures fails the test unless got, a variant render of the
// figure set, is byte-identical to the plain reference, naming the first
// line where they diverge.
func requirePlainFigures(t *testing.T, variant string, got []byte) {
	t.Helper()
	want, err := plainFigures()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, got) {
		return
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			t.Fatalf("outputs diverge at line %d:\n plain: %s\n %s: %s", i+1, wl[i], variant, gl[i])
		}
	}
	t.Fatalf("outputs differ in length: plain %d lines, %s %d lines", len(wl), variant, len(gl))
}

// TestRenderAllParallelByteIdentical is the pipeline's determinism gate:
// at smoke scale, an 8-job render of every figure must be byte-identical
// to a serial render. Its cold render simulates each distinct lane once:
// the figures' runs of registered policies are keyed by fingerprint, so
// Figure 16 and the policy zoo share their timeout runs, and Figure 12
// and the zoo their PowerChop runs. The ablations add 23 lanes to the
// other figures' 325; each sweep's default setting is a lane another
// figure runs:
//   - thresholds 0.001, 0.02 and 0.1 on gobmk, soplex and msn (9);
//   - timeouts of 100, 1000 and 100000 idle cycles on h264ref (3);
//   - quality-tracked PowerChop on gobmk at N=1, 2 and 8 with W=1000,
//     at W=200 and 5000 with N=4 (5), and in a 16- and a 512-entry HTB
//     (2);
//   - PowerChop on msn with a 4- and a 64-entry tree-PLRU PVT (2), and
//     a 4-entry true-LRU and random PVT (2).
func TestRenderAllParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure renders are slow; skipped with -short")
	}
	if raceEnabled {
		t.Skip("two full figure renders under the race detector are too slow; " +
			"runner concurrency is race-tested in internal/experiments")
	}
	var parallel bytes.Buffer
	f := NewFigureRunner(0.02, WithJobs(8))
	if err := f.RenderAll(&parallel); err != nil {
		t.Fatal(err)
	}
	requirePlainFigures(t, "parallel", parallel.Bytes())
	if n := f.runner.Simulations(); n != 348 {
		t.Errorf("cold render simulated %d lanes, want 348", n)
	}
}

// TestCompareParallelMatchesSerial checks Options.Parallelism changes
// only wall-clock, never results.
func TestCompareParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison runs are slow; skipped with -short")
	}
	serial, err := Compare("namd", Options{Passes: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compare("namd", Options{Passes: 0.25, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel Compare diverged from serial:\n serial:   %+v\n parallel: %+v", serial, par)
	}
}
