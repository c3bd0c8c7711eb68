package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"powerchop/internal/phase"
	"powerchop/internal/workload"
)

// TestAblationsShape pins the directions the recorded sweeps show at one
// schedule pass per lane (the shared scale-0.15 runner).
func TestAblationsShape(t *testing.T) {
	r := runner(t)
	fig, err := Ablations(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	sweeps := map[string]*Sweep{}
	for _, s := range fig.Sweeps {
		sweeps[s.id] = s
	}
	value := func(id string, row, col int) float64 { return sweeps[id].Values[row][col] }

	for i := 1; i < 4; i++ {
		if lo, hi := value("thresholds", i-1, 0), value("thresholds", i, 0); hi <= lo {
			t.Errorf("gated fraction %.4f at %s not above %.4f at %s", hi,
				sweeps["thresholds"].Settings[i], lo, sweeps["thresholds"].Settings[i-1])
		}
		if hi, lo := value("timeout", i-1, 0), value("timeout", i, 0); lo >= hi {
			t.Errorf("VPU gated %.4f at %s idle cycles not below %.4f at %s", lo,
				sweeps["timeout"].Settings[i], hi, sweeps["timeout"].Settings[i-1])
		}
	}
	if slow := value("timeout", 3, 1); slow != 0 {
		t.Errorf("a 100000-cycle timeout that never gates slows h264ref by %v", slow)
	}
	if n1, n4 := value("signature", 0, 1), value("signature", 2, 1); n1 >= n4 {
		t.Errorf("N=1 recognizes %v phases, N=4 %v", n1, n4)
	}
	if w200, w1000 := value("signature", 4, 0), value("signature", 2, 0); w200 <= w1000 {
		t.Errorf("signature distance %.4f at W=200 not above %.4f at W=1000", w200, w1000)
	}
	if plru, random := value("pvt-replacement", 0, 0), value("pvt-replacement", 2, 0); plru < random {
		t.Errorf("tree-PLRU PVT hit rate %.4f below random's %.4f", plru, random)
	}
	if out := fig.Render(); strings.Count(out, "Ablation: ") != len(fig.Sweeps) {
		t.Errorf("render lacks a table per sweep:\n%s", out)
	}
}

// TestLanePhaseKeys checks a lane names its phase configuration in its
// key only off the paper's default, so default lanes keep their keys
// and lanes that differ only in phase configuration never share one.
func TestLanePhaseKeys(t *testing.T) {
	b, err := workload.ByName("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := NewParallelRunner(1, 0).template(b)
	if err != nil {
		t.Fatal(err)
	}
	l := powerChop
	l.Program, l.Design, l.RunLen = tmpl.Program, tmpl.Design, tmpl.RunLen
	base := l.key()
	if want := fmt.Sprintf("translations=%d sample=0 quality=false", l.RunLen); base.Config != want {
		t.Errorf("default lane config %q, want %q", base.Config, want)
	}
	def := l
	def.Phase = phase.DefaultConfig()
	if def.key() != base {
		t.Errorf("explicit default phase keyed %+v, want %+v", def.key(), base)
	}
	short, long := l, l
	short.Phase = phase.Config{Capacity: 128, WindowSize: 1000, SignatureLen: 2}
	long.Phase = phase.Config{Capacity: 128, WindowSize: 1000, SignatureLen: 8}
	if short.key() == base || short.key() == long.key() {
		t.Errorf("lanes differing only in phase share a key: %+v, %+v", short.key(), long.key())
	}
}
