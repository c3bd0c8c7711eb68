package main

import (
	"strconv"
	"strings"
	"testing"

	"powerchop/internal/policy"
)

// TestGridFlagCeiling checks that -grid rejects a range or a list above
// policy.MaxGridPoints before expanding it, and still expands ranges
// and lists at the limit.
func TestGridFlagCeiling(t *testing.T) {
	limit := strconv.Itoa(policy.MaxGridPoints)
	over := strconv.Itoa(policy.MaxGridPoints + 1)
	for _, s := range []string{
		"vpu=0.001:0.02:" + over,
		"vpu=0.001:0.02:1000000000",
		"vpu=" + strings.Repeat("1,", policy.MaxGridPoints) + "1",
	} {
		var g gridFlag
		var err error
		allocs := testing.AllocsPerRun(1, func() { err = g.Set(s) })
		if err == nil || !strings.Contains(err.Error(), "above the limit") {
			t.Errorf("Set(%.40q) = %v, want the grid limit", s, err)
		}
		if allocs > 10 || len(g) != 0 {
			t.Errorf("Set(%.40q) allocated %.0f times and kept %d axes", s, allocs, len(g))
		}
	}
	for _, s := range []string{
		"vpu=0.001:0.02:" + limit,
		"vpu=" + strings.Repeat("1,", policy.MaxGridPoints-1) + "1",
	} {
		var g gridFlag
		if err := g.Set(s); err != nil || len(g["vpu"]) != policy.MaxGridPoints {
			t.Errorf("Set(%.40q) = %v with %d values, want %d", s, err, len(g["vpu"]), policy.MaxGridPoints)
		}
	}
}

// FuzzGridFlag checks that no -grid value panics the parser or yields
// an axis that is empty or longer than policy.MaxGridPoints.
func FuzzGridFlag(f *testing.F) {
	for _, seed := range []string{
		// The grids CI sweeps.
		"idle-cycles=5000:40000:3",
		"vpu=0.001,0.005,0.02",
		"bpu=0.001,0.005,0.04",
		"mlc1=0.005",
		"bpu-idle=0.02,0.05,0.1,0.2",
		"deep-after=4,8",
		// A one-step range and a huge step count.
		"vpu=0.001:0.02:1",
		"vpu=0.001:0.02:1000000000",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var g gridFlag
		if err := g.Set(s); err != nil {
			return
		}
		for name, vals := range g {
			if len(vals) == 0 || len(vals) > policy.MaxGridPoints {
				t.Fatalf("Set(%q) gave %s %d values", s, name, len(vals))
			}
		}
	})
}
