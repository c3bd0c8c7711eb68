package experiments

import (
	"sync"
	"testing"

	"powerchop/internal/obs"
	"powerchop/internal/workload"
)

// recordingSink captures every RunUpdate, safe for concurrent emission.
type recordingSink struct {
	mu      sync.Mutex
	updates []obs.RunUpdate
}

func (s *recordingSink) record(u obs.RunUpdate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.updates = append(s.updates, u)
}

func (s *recordingSink) all() []obs.RunUpdate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.RunUpdate(nil), s.updates...)
}

// TestRunnerProgressLifecycle drives one run and checks the sink sees the
// full queued → simulating → done sequence with sane counters, and that a
// deduplicated second call stays silent.
func TestRunnerProgressLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	sink := &recordingSink{}
	r := NewParallelRunner(0.05, 2)
	r.Progress = sink.record
	b, err := workload.ByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := result(r, b, powerChop)
	if err != nil {
		t.Fatal(err)
	}

	ups := sink.all()
	if len(ups) < 3 {
		t.Fatalf("only %d updates for a full lifecycle", len(ups))
	}
	if ups[0].State != obs.StateQueued || ups[1].State != obs.StateSimulating {
		t.Fatalf("lifecycle starts %v, %v", ups[0].State, ups[1].State)
	}
	last := ups[len(ups)-1]
	if last.State != obs.StateDone || last.Elapsed <= 0 {
		t.Fatalf("final update = %+v", last)
	}
	if last.Cycles != res.Cycles || last.Windows != res.Windows {
		t.Fatalf("final update %+v does not match result (cycles %v windows %d)",
			last, res.Cycles, res.Windows)
	}
	for i, u := range ups {
		if u.Benchmark != "namd" || u.Kind != powerChop.ManagerKey {
			t.Fatalf("update %d for wrong run: %+v", i, u)
		}
		if u.State == obs.StateSimulating && u.Translations > 0 && u.Total == 0 {
			t.Fatalf("update %d has translations without a budget: %+v", i, u)
		}
	}
	// In-flight updates advance monotonically.
	var cyc float64
	for _, u := range ups[:len(ups)-1] {
		if u.State == obs.StateSimulating && u.Cycles > 0 {
			if u.Cycles < cyc {
				t.Fatalf("cycles regressed: %v after %v", u.Cycles, cyc)
			}
			cyc = u.Cycles
		}
	}

	// A cached call must not replay the lifecycle.
	before := len(sink.all())
	if _, err := result(r, b, powerChop); err != nil {
		t.Fatal(err)
	}
	if after := len(sink.all()); after != before {
		t.Fatalf("cached run emitted %d extra updates", after-before)
	}
}

// TestRunnerProgressError checks a failing run reports StateError.
func TestRunnerProgressError(t *testing.T) {
	sink := &recordingSink{}
	r := NewParallelRunner(0.05, 1)
	r.Progress = sink.record
	bad := workload.Benchmark{Name: "broken"}
	if _, err := result(r, bad, bogus); err == nil {
		t.Fatal("bogus run succeeded")
	}
	ups := sink.all()
	if len(ups) == 0 {
		t.Fatal("no updates for failed run")
	}
	last := ups[len(ups)-1]
	if last.State != obs.StateError || last.Err == "" {
		t.Fatalf("final update for failed run = %+v", last)
	}
}

// TestRunnerProgressDeterminism checks a progress-observed runner
// computes exactly the results of a silent one.
func TestRunnerProgressDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow; skipped with -short")
	}
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	silent := NewParallelRunner(0.05, 1)
	want, err := result(silent, b, powerChop)
	if err != nil {
		t.Fatal(err)
	}
	observed := NewParallelRunner(0.05, 1)
	observed.Progress = (&recordingSink{}).record
	got, err := result(observed, b, powerChop)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.GuestInsns != want.GuestInsns ||
		got.Power.AvgPowerW() != want.Power.AvgPowerW() {
		t.Fatalf("progress observation perturbed the run: cycles %v vs %v",
			got.Cycles, want.Cycles)
	}
}
