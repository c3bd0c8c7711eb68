// Command benchcmp compares two files of `go test -bench` output and
// flags the benchmarks that got slower:
//
//	benchcmp OLD NEW
//
// OLD holds the parent's samples and NEW the change's, one output line
// per sample (run `go test -bench` once per round and append). Both
// sides should come from one host in alternating rounds, so that host
// drift reaches both alike; README.md "Layer rungs" has the recipe.
//
// For each benchmark present on both sides it prints the sample counts,
// the ns/op medians, their relative delta, the parent's IQR/median and
// the two-sided Mann–Whitney p-value of the ns/op samples. Other units
// (B/op, allocs/op, custom metrics) print as medians. A benchmark is
// flagged when p < 0.05 and its ns/op median is more than 25% above the
// parent's. A benchmark found on one side only is listed, never
// flagged.
//
// Exit status: 0 when nothing is flagged, 1 when at least one benchmark
// is flagged (the output names each), 2 when an input cannot be read or
// holds no benchmark lines.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"powerchop/internal/stats"
)

const (
	// alpha is the significance level of the U test.
	alpha = 0.05
	// maxSlowdown is the ns/op median increase, relative to the
	// parent's, beyond which a significant difference is flagged.
	maxSlowdown = 0.25
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchcmp OLD NEW")
		return 2
	}
	var sides [2]*sampleSet
	for i, path := range args {
		s, err := load(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchcmp: %v\n", err)
			return 2
		}
		sides[i] = s
	}
	flagged := compare(sides[0], sides[1], stdout)
	if len(flagged) == 0 {
		return 0
	}
	fmt.Fprintf(stdout, "\n%d benchmark(s) slower by more than %.0f%% at p < %g:\n",
		len(flagged), 100*maxSlowdown, alpha)
	for _, name := range flagged {
		fmt.Fprintf(stdout, "  %s\n", name)
	}
	return 1
}

// result is one parsed benchmark line.
type result struct {
	// Pkg is the import path from the last "pkg:" header before the
	// line, or "" when there was none.
	Pkg string
	// Name is the full benchmark name, including any -N GOMAXPROCS
	// suffix (e.g. "BenchmarkLaneGroup/mixed/lanes=8-2").
	Name string
	// Metrics holds every reported unit: ns/op, and B/op, allocs/op
	// and custom b.ReportMetric units when present.
	Metrics map[string]float64
}

// parseLine parses one `go test -bench` output line of the form
//
//	BenchmarkName-8   100   11234567 ns/op   42 B/op   7 allocs/op
//
// returning ok=false for non-benchmark lines (headers, PASS, ok ...).
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil { // b.N
		return result{}, false
	}
	r := result{Name: fields[0], Metrics: map[string]float64{}}
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// parse collects every benchmark line from `go test -bench` output,
// tagging each with the package its "pkg:" header names.
func parse(r io.Reader) ([]result, error) {
	var out []result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if res, ok := parseLine(line); ok {
			res.Pkg = pkg
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// bench identifies a benchmark across files: two packages may hold
// benchmarks of the same name.
type bench struct{ pkg, name string }

// sampleSet is one file's samples: per benchmark, in order of first
// appearance, every sample's value of every unit.
type sampleSet struct {
	order []bench
	vals  map[bench]map[string][]float64
}

func load(path string) (*sampleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines", path)
	}
	s := &sampleSet{vals: map[bench]map[string][]float64{}}
	for _, r := range results {
		b := bench{r.Pkg, r.Name}
		vals := s.vals[b]
		if vals == nil {
			vals = map[string][]float64{}
			s.vals[b] = vals
			s.order = append(s.order, b)
		}
		for u, v := range r.Metrics {
			vals[u] = append(vals[u], v)
		}
	}
	return s, nil
}

// compare prints the table for every benchmark of either side, grouped
// under package headers, and returns the names of the flagged ones.
func compare(old, cur *sampleSet, w io.Writer) (flagged []string) {
	order := append([]bench(nil), cur.order...)
	for _, b := range old.order {
		if cur.vals[b] == nil {
			order = append(order, b)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].pkg < order[j].pkg })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	pkg := "\x00" // matches no package, so the first header prints
	for _, b := range order {
		if b.pkg != pkg {
			pkg = b.pkg
			if b.pkg != "" {
				fmt.Fprintf(tw, "pkg: %s\n", b.pkg)
			}
			fmt.Fprintln(tw, "benchmark\tn old/new\told ns/op\tnew ns/op\tdelta\told IQR/med\tp\t")
		}
		ov, cv := old.vals[b], cur.vals[b]
		switch {
		case ov == nil:
			fmt.Fprintf(tw, "%s\t-/%d\t\t%s\t(new only)\t\t\t\n", b.name, len(cv["ns/op"]), fmtNs(stats.Median(cv["ns/op"])))
			continue
		case cv == nil:
			fmt.Fprintf(tw, "%s\t%d/-\t%s\t\t(old only)\t\t\t\n", b.name, len(ov["ns/op"]), fmtNs(stats.Median(ov["ns/op"])))
			continue
		}
		oldNs, newNs := ov["ns/op"], cv["ns/op"]
		om, cm := stats.Median(oldNs), stats.Median(newNs)
		p := stats.MannWhitney(oldNs, newNs)
		delta, spread, mark := "n/a", "n/a", ""
		if om > 0 {
			d := (cm - om) / om
			delta = fmt.Sprintf("%+.1f%%", 100*d)
			spread = fmt.Sprintf("%.1f%%", 100*iqr(oldNs)/om)
			if p < alpha && d > maxSlowdown {
				mark = "  FLAGGED"
				flagged = append(flagged, b.name)
			}
		}
		fmt.Fprintf(tw, "%s\t%d/%d\t%s\t%s\t%s\t%s\t%.3f\t%s\n",
			b.name, len(oldNs), len(newNs), fmtNs(om), fmtNs(cm), delta, spread, p, mark)
		var units []string
		for u := range ov {
			if u != "ns/op" && cv[u] != nil {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			fmt.Fprintf(tw, "  %s\t\t%s\t%s\t\t\t\t\n", u, fmtNum(stats.Median(ov[u])), fmtNum(stats.Median(cv[u])))
		}
	}
	return flagged
}

// iqr is the interquartile range of xs, with quartiles interpolated
// linearly between order statistics.
func iqr(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return q(0.75) - q(0.25)
}

// fmtNs renders a ns/op figure in the largest unit that keeps it at or
// above one.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.3gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	}
	return fmt.Sprintf("%.3gns", ns)
}

// fmtNum renders a metric median: whole numbers in full, others to four
// significant digits.
func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
