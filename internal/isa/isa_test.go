package isa

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Scalar: "scalar",
		Vector: "vector",
		Branch: "branch",
		Load:   "load",
		Store:  "store",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindValid(t *testing.T) {
	for k := Kind(0); k < Kind(NumKinds); k++ {
		if !k.Valid() {
			t.Errorf("Kind %v should be valid", k)
		}
	}
	if Kind(NumKinds).Valid() {
		t.Error("out-of-range kind reported valid")
	}
}

func TestMixValidate(t *testing.T) {
	valid := []Mix{
		{},
		{VectorFrac: 0.5, BranchFrac: 0.2, LoadFrac: 0.2, StoreFrac: 0.1},
		{BranchFrac: 1},
	}
	for _, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	invalid := []Mix{
		{VectorFrac: -0.1},
		{BranchFrac: 1.1},
		{VectorFrac: 0.6, LoadFrac: 0.6},
	}
	for _, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

func TestScalarFrac(t *testing.T) {
	m := Mix{VectorFrac: 0.1, BranchFrac: 0.2, LoadFrac: 0.3, StoreFrac: 0.1}
	if got := m.ScalarFrac(); got < 0.299 || got > 0.301 {
		t.Errorf("ScalarFrac = %v, want 0.3", got)
	}
	over := Mix{VectorFrac: 0.7, LoadFrac: 0.7}
	if got := over.ScalarFrac(); got != 0 {
		t.Errorf("ScalarFrac of oversubscribed mix = %v, want 0", got)
	}
}

func TestInstString(t *testing.T) {
	i := Inst{PC: 0x1000, Kind: Branch, Sel: 2}
	s := i.String()
	if !strings.Contains(s, "branch") || !strings.Contains(s, "00001000") {
		t.Errorf("Inst.String() = %q", s)
	}
}
