package policy

import (
	"math"
	"strings"
	"testing"

	"powerchop/internal/core"
)

func testSpec() Spec {
	return Spec{
		Name:        "test-spec",
		Description: "spec for schema tests",
		Params: []Param{
			{Name: "alpha", Description: "first", Default: 0.5, Min: 0, Max: 1},
			{Name: "beta", Description: "second", Default: 10, Min: 1, Max: 100},
		},
		Build: func(p Params) (core.Manager, error) { return core.AlwaysOn(), nil },
	}
}

func TestDefaults(t *testing.T) {
	d := testSpec().Defaults()
	if len(d) != 2 || d["alpha"] != 0.5 || d["beta"] != 10 {
		t.Fatalf("Defaults() = %v", d)
	}
}

func TestValidate(t *testing.T) {
	s := testSpec()
	if err := s.Validate(nil); err != nil {
		t.Fatalf("nil params: %v", err)
	}
	if err := s.Validate(Params{"alpha": 0, "beta": 100}); err != nil {
		t.Fatalf("bounds are inclusive: %v", err)
	}
	err := s.Validate(Params{"gamma": 1})
	if err == nil || !strings.Contains(err.Error(), `unknown parameter "gamma"`) {
		t.Fatalf("unknown param: %v", err)
	}
	if !strings.Contains(err.Error(), "alpha") || !strings.Contains(err.Error(), "beta") {
		t.Fatalf("unknown-param error does not list known names: %v", err)
	}
	err = s.Validate(Params{"alpha": 1.5})
	if err == nil || !strings.Contains(err.Error(), "out of [0, 1]") {
		t.Fatalf("out-of-bounds: %v", err)
	}
	if err := s.Validate(Params{"beta": 0.5}); err == nil {
		t.Fatal("below-min accepted")
	}
}

// TestValidateErrorDeterministic pins that the reported offender is the
// lexically first bad key, not map-iteration-order dependent.
func TestValidateErrorDeterministic(t *testing.T) {
	s := testSpec()
	for i := 0; i < 20; i++ {
		err := s.Validate(Params{"zeta": 1, "gamma": 1, "delta": 1})
		if err == nil || !strings.Contains(err.Error(), `"delta"`) {
			t.Fatalf("iteration %d: want lexically-first key delta, got %v", i, err)
		}
	}
}

func TestResolveOverlaysDefaults(t *testing.T) {
	s := testSpec()
	r, err := s.Resolve(Params{"beta": 42})
	if err != nil {
		t.Fatal(err)
	}
	if r["alpha"] != 0.5 || r["beta"] != 42 {
		t.Fatalf("Resolve = %v", r)
	}
	if _, err := s.Resolve(Params{"beta": 0}); err == nil {
		t.Fatal("Resolve accepted out-of-bounds value")
	}
}

func TestFingerprint(t *testing.T) {
	s := testSpec()
	fp, err := s.Fingerprint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := "test-spec{alpha=0.5,beta=10}"; fp != want {
		t.Fatalf("Fingerprint(nil) = %q, want %q", fp, want)
	}
	// Spelling out a default must not change the identity.
	explicit, err := s.Fingerprint(Params{"alpha": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if explicit != fp {
		t.Fatalf("explicit default changed fingerprint: %q vs %q", explicit, fp)
	}
	other, err := s.Fingerprint(Params{"alpha": 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if other == fp {
		t.Fatal("distinct params share a fingerprint")
	}
	if _, err := s.Fingerprint(Params{"nope": 1}); err == nil {
		t.Fatal("Fingerprint accepted unknown parameter")
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty name", Spec{Build: testSpec().Build}},
		{"nil build", Spec{Name: "x"}},
		{"unnamed param", Spec{Name: "x", Build: testSpec().Build,
			Params: []Param{{Description: "d"}}}},
		{"duplicate param", Spec{Name: "x", Build: testSpec().Build,
			Params: []Param{{Name: "a", Max: 1}, {Name: "a", Max: 1}}}},
		{"default below min", Spec{Name: "x", Build: testSpec().Build,
			Params: []Param{{Name: "a", Default: 0, Min: 1, Max: 2}}}},
		{"min above max", Spec{Name: "x", Build: testSpec().Build,
			Params: []Param{{Name: "a", Default: 1.5, Min: 2, Max: 1}}}},
		{"duplicate name", Spec{Name: "powerchop", Build: testSpec().Build}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", tc.name)
				}
			}()
			Register(tc.spec)
		}()
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	want := []string{"agilewatts", "darkgates", "energy-min", "full-power", "min-power", "powerchop", "timeout"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missed", name)
		}
		m, err := s.Manager(nil)
		if err != nil {
			t.Fatalf("%s: Manager(nil): %v", name, err)
		}
		if m == nil {
			t.Fatalf("%s: nil manager", name)
		}
		// Each call must produce a fresh stateful instance.
		m2, err := s.Manager(nil)
		if err != nil {
			t.Fatal(err)
		}
		if m == m2 {
			t.Fatalf("%s: Build returned a shared manager instance", name)
		}
	}
}

// TestNaNRejected checks every registered policy rejects NaN for each of
// its parameters with the bounds error: NaN compares false against both
// bounds, so a plain range check lets it through to a "NaN" fingerprint.
func TestNaNRejected(t *testing.T) {
	for _, s := range All() {
		for _, prm := range s.Params {
			p := Params{prm.Name: math.NaN()}
			if _, err := s.Fingerprint(p); err == nil || !strings.Contains(err.Error(), "out of") {
				t.Errorf("%s: %s = NaN: Fingerprint error %v, want the bounds error", s.Name, prm.Name, err)
			}
			if _, err := s.Manager(p); err == nil {
				t.Errorf("%s: %s = NaN: Manager built", s.Name, prm.Name)
			}
		}
	}
}

// FuzzParams checks the parameter boundary of every registered policy:
// for any policy, parameter and value, Fingerprint either errors, or the
// value is finite and within the parameter's bounds and Manager builds
// without panicking.
func FuzzParams(f *testing.F) {
	specs := All()
	for si, s := range specs {
		for pi, prm := range s.Params {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), prm.Min, prm.Max} {
				f.Add(uint(si), uint(pi), v)
			}
		}
	}
	f.Fuzz(func(t *testing.T, si, pi uint, v float64) {
		s := specs[si%uint(len(specs))]
		if len(s.Params) == 0 {
			return
		}
		prm := s.Params[pi%uint(len(s.Params))]
		p := Params{prm.Name: v}
		if _, err := s.Fingerprint(p); err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < prm.Min || v > prm.Max {
			t.Fatalf("%s: %s = %v accepted outside [%v, %v]", s.Name, prm.Name, v, prm.Min, prm.Max)
		}
		// An in-bounds value may still violate a cross-parameter rule,
		// which Build reports as an error; it must never panic.
		_, _ = s.Manager(p)
	})
}
