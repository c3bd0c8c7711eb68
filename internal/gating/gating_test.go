package gating

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestResidencyAccumulation(t *testing.T) {
	u := NewUnit("VPU", 1)
	if changed := u.Set(0, 100); !changed {
		t.Fatal("transition not reported as change")
	}
	if changed := u.Set(0, 200); changed {
		t.Fatal("same-state set reported as change")
	}
	u.Set(1, 300)
	u.CloseOut(1000)
	if got := u.Residency(1); !almost(got, 100+700) {
		t.Fatalf("on residency = %v, want 800", got)
	}
	if got := u.Residency(0); !almost(got, 200) {
		t.Fatalf("off residency = %v, want 200", got)
	}
	if got := u.TotalCycles(); !almost(got, 1000) {
		t.Fatalf("total = %v", got)
	}
	if got := u.Switches(); got != 2 {
		t.Fatalf("switches = %d", got)
	}
}

func TestGatedFrac(t *testing.T) {
	u := NewUnit("MLC", 1)
	u.Set(0.5, 250)
	u.Set(0.125, 500)
	u.CloseOut(1000)
	// 250 cycles fully on, 250 half, 500 one-way.
	if got := u.GatedFrac(); !almost(got, 0.75) {
		t.Fatalf("GatedFrac = %v, want 0.75", got)
	}
}

// TestTotalCyclesDeterministic pins the residency sums to ascending level
// order. The residencies below sum to 1e16 in that order and to 1e16+2
// when both 1-cycle levels come first, so a sum in map order would
// differ between calls.
func TestTotalCyclesDeterministic(t *testing.T) {
	u := NewUnit("MLC", 1)
	u.Set(0.5, 1)
	u.Set(0.125, 2)
	u.CloseOut(1e16 + 2)
	for i := 0; i < 100; i++ {
		if got := u.TotalCycles(); got != 1e16 {
			t.Fatalf("call %d: TotalCycles = %v, want 1e16 (ascending level order)", i, got)
		}
	}
}

func TestLevels(t *testing.T) {
	u := NewUnit("MLC", 1)
	u.Set(0.125, 10)
	u.Set(0.5, 20)
	u.CloseOut(30)
	levels := u.Levels()
	want := []float64{0.125, 0.5, 1}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestSwitchesPerMillionCycles(t *testing.T) {
	u := NewUnit("BPU", 1)
	for i := 1; i <= 10; i++ {
		u.Set(float64(i%2), float64(i)*100000)
	}
	u.CloseOut(2e6)
	// The first Set(1, …) matches the initial state, so 9 transitions
	// over 2M cycles = 4.5 per million.
	if got := u.SwitchesPerMillionCycles(); !almost(got, 4.5) {
		t.Fatalf("SwitchesPerMillionCycles = %v, want 4.5", got)
	}
}

func TestRetroactiveOrdering(t *testing.T) {
	// A timeout manager decides late but issues transitions in time order.
	u := NewUnit("VPU", 1)
	u.Set(0, 20000) // retroactive gate-off at idle start + timeout
	u.Set(1, 50000) // wake at the next vector op
	u.CloseOut(60000)
	if got := u.Residency(0); !almost(got, 30000) {
		t.Fatalf("off residency = %v, want 30000", got)
	}
}

func TestZeroCyclesGatedFrac(t *testing.T) {
	u := NewUnit("VPU", 1)
	u.CloseOut(0)
	if u.GatedFrac() != 0 || u.SwitchesPerMillionCycles() != 0 {
		t.Fatal("zero-length run should report zeros")
	}
}

func TestDoubleCloseOutIsIdempotent(t *testing.T) {
	u := NewUnit("VPU", 1)
	u.Set(0, 10)
	u.CloseOut(100)
	u.CloseOut(100) // no-op
	if got := u.TotalCycles(); !almost(got, 100) {
		t.Fatalf("total = %v", got)
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"bad-init", func() { NewUnit("x", 2) }},
		{"bad-frac", func() { NewUnit("x", 1).Set(1.5, 10) }},
		{"time-backwards", func() {
			u := NewUnit("x", 1)
			u.Set(0, 100)
			u.Set(1, 50)
		}},
		{"use-after-close", func() {
			u := NewUnit("x", 1)
			u.CloseOut(10)
			u.Set(0, 20)
		}},
		{"close-backwards", func() {
			u := NewUnit("x", 1)
			u.Set(0, 100)
			u.CloseOut(50)
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestName(t *testing.T) {
	if NewUnit("BPU", 1).Name() != "BPU" {
		t.Fatal("name not preserved")
	}
	if NewUnit("BPU", 0.5).PowerFrac() != 0.5 {
		t.Fatal("initial power fraction not preserved")
	}
}
