package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkTracerOverhead/traced-8   \t     100\t  11234567 ns/op\t  42 B/op\t       7 allocs/op")
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkTracerOverhead/traced-8" {
		t.Fatalf("parsed: %+v", r)
	}
	if len(r.Metrics) != 3 || r.Metrics["ns/op"] != 11234567 || r.Metrics["B/op"] != 42 || r.Metrics["allocs/op"] != 7 {
		t.Fatalf("metrics: %+v", r.Metrics)
	}

	// Custom metric units pass through.
	r, ok = parseLine("BenchmarkX-4 200 5000 ns/op 1.5 windows/op")
	if !ok || r.Metrics["windows/op"] != 1.5 {
		t.Fatalf("custom metric: %+v ok=%v", r, ok)
	}

	for _, bad := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  \tpowerchop\t1.2s",
		"BenchmarkBroken-8 notanumber 5 ns/op",
		"BenchmarkNoMetrics-8 100",
		"BenchmarkBadValue-8 100 fast ns/op",
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("accepted non-benchmark line %q", bad)
		}
	}
}

func TestParse(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkTop-8   	     100	  3000 ns/op
pkg: powerchop/internal/a
BenchmarkA-8   	     100	  1000 ns/op	  16 B/op	  1 allocs/op
pkg: powerchop/internal/b
BenchmarkB/sub-8 	      50	  2000 ns/op
PASS
ok  	powerchop/internal/b	2.0s
`
	results, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results", len(results))
	}
	for i, want := range []struct{ pkg, name string }{
		{"", "BenchmarkTop-8"},
		{"powerchop/internal/a", "BenchmarkA-8"},
		{"powerchop/internal/b", "BenchmarkB/sub-8"},
	} {
		if results[i].Pkg != want.pkg || results[i].Name != want.name {
			t.Errorf("result %d = %s %s, want %s %s", i, results[i].Pkg, results[i].Name, want.pkg, want.name)
		}
	}
	if results[2].Metrics["ns/op"] != 2000 {
		t.Fatalf("results: %+v", results)
	}
}

// samples renders one `go test -bench` line per ns/op value, as five
// appended rounds would leave them.
func samples(name string, scale float64) string {
	var b strings.Builder
	for _, ns := range []float64{1000, 1020, 980, 1010, 990} {
		fmt.Fprintf(&b, "%s-2 \t 1000\t %.0f ns/op\t 64 B/op\t 2 allocs/op\n", name, ns*scale)
	}
	return b.String()
}

// cmp writes the two canned outputs to files and runs the command on
// them.
func cmp(t *testing.T, old, cur string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	oldPath, curPath := filepath.Join(dir, "base.txt"), filepath.Join(dir, "head.txt")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(curPath, []byte(cur), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{oldPath, curPath}, &out, &errOut)
	return code, out.String() + errOut.String()
}

func TestCompareFlagsSignificantSlowdown(t *testing.T) {
	const header = "goos: linux\npkg: powerchop/internal/sim\n"
	code, out := cmp(t,
		header+samples("BenchmarkSlow", 1)+samples("BenchmarkSteady", 1),
		header+samples("BenchmarkSlow", 1.3)+samples("BenchmarkSteady", 1))
	if code != 1 {
		t.Fatalf("+30%% fully separated exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "1 benchmark(s) slower by more than 25% at p < 0.05:\n  BenchmarkSlow-2\n") {
		t.Errorf("output does not name the slowed benchmark:\n%s", out)
	}
	for _, want := range []string{"pkg: powerchop/internal/sim", "+30.0%", "0.008", "FLAGGED", "B/op", "allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "BenchmarkSteady-2\n") {
		t.Errorf("unchanged benchmark flagged:\n%s", out)
	}
}

func TestCompareWithinBounds(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
	}{
		{"+10%", 1.1}, // significant, but inside the 25% bound
		{"-30%", 0.7}, // significant, and faster
		{"+0%", 1},
	} {
		code, out := cmp(t, samples("BenchmarkX", 1), samples("BenchmarkX", c.scale))
		if code != 0 || strings.Contains(out, "FLAGGED") {
			t.Errorf("%s exited %d:\n%s", c.name, code, out)
		}
	}
}

func TestCompareOneSideOnly(t *testing.T) {
	code, out := cmp(t,
		samples("BenchmarkShared", 1)+samples("BenchmarkGone", 1),
		samples("BenchmarkShared", 1)+samples("BenchmarkNew", 5))
	if code != 0 {
		t.Fatalf("one-sided benchmarks exited %d:\n%s", code, out)
	}
	for _, want := range []string{"BenchmarkGone-2", "(old only)", "BenchmarkNew-2", "(new only)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareBadInput(t *testing.T) {
	if code, out := cmp(t, samples("BenchmarkX", 1), "PASS\nok  \tpowerchop\t0.1s\n"); code != 2 ||
		!strings.Contains(out, "no benchmark lines") {
		t.Errorf("file without benchmark lines exited %d:\n%s", code, out)
	}
	var out bytes.Buffer
	if code := run([]string{filepath.Join(t.TempDir(), "missing.txt"), "x"}, &out, &out); code != 2 {
		t.Errorf("missing file exited %d: %s", code, out.String())
	}
	if code := run([]string{"only-one.txt"}, &out, &out); code != 2 {
		t.Errorf("one argument exited %d", code)
	}
}
