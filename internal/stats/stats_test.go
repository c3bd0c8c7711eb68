package stats

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almost(got, c.want) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 || Sum(nil) != 0 {
		t.Error("empty-slice helpers should return 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); !almost(got, 2.5) {
		t.Errorf("even Median = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	// Median must not reorder its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

// TestMannWhitneyExact pins the exact path against p-values counted by
// hand over the 252 ways to split 1..10 into two samples of five, and
// checks every such split against the same enumeration.
func TestMannWhitneyExact(t *testing.T) {
	cases := []struct {
		x, y []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5}, []float64{6, 7, 8, 9, 10}, 2.0 / 252},
		{[]float64{1, 2, 3, 4, 6}, []float64{5, 7, 8, 9, 10}, 4.0 / 252},
		{[]float64{1, 2, 3, 5, 6}, []float64{4, 7, 8, 9, 10}, 8.0 / 252},
		{[]float64{1, 3, 5, 7, 9}, []float64{2, 4, 6, 8, 10}, 174.0 / 252},
	}
	for _, c := range cases {
		if got := MannWhitney(c.x, c.y); !almost(got, c.want) {
			t.Errorf("MannWhitney(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
		if got := MannWhitney(c.y, c.x); !almost(got, c.want) {
			t.Errorf("MannWhitney(%v, %v) = %v, want %v (swapped)", c.y, c.x, got, c.want)
		}
	}

	// Every split: U counts pairs with x > y; the two-sided p doubles
	// the smaller tail.
	var splits [][2][]float64
	for mask := 0; mask < 1<<10; mask++ {
		if bits.OnesCount(uint(mask)) != 5 {
			continue
		}
		var x, y []float64
		for v := 1; v <= 10; v++ {
			if mask&(1<<(v-1)) != 0 {
				x = append(x, float64(v))
			} else {
				y = append(y, float64(v))
			}
		}
		splits = append(splits, [2][]float64{x, y})
	}
	uOf := func(x, y []float64) int {
		u := 0
		for _, a := range x {
			for _, b := range y {
				if a > b {
					u++
				}
			}
		}
		return u
	}
	for _, s := range splits {
		u := uOf(s[0], s[1])
		lo, hi := 0, 0
		for _, o := range splits {
			v := uOf(o[0], o[1])
			if v <= u {
				lo++
			}
			if v >= u {
				hi++
			}
		}
		want := math.Min(1, 2*math.Min(float64(lo), float64(hi))/float64(len(splits)))
		if got := MannWhitney(s[0], s[1]); !almost(got, want) {
			t.Fatalf("MannWhitney(%v, %v) = %v, want %v by enumeration", s[0], s[1], got, want)
		}
	}
}

func TestMannWhitneyTiesAndEdges(t *testing.T) {
	same := []float64{3, 1, 4, 1, 5}
	if got := MannWhitney(same, same); got != 1 {
		t.Errorf("identical samples: p = %v, want 1", got)
	}
	flat := []float64{7, 7, 7}
	if got := MannWhitney(flat, flat); got != 1 {
		t.Errorf("all-tied samples: p = %v, want 1", got)
	}
	if got := MannWhitney(nil, same); got != 1 {
		t.Errorf("empty sample: p = %v, want 1", got)
	}
	// A tie group of three across the samples takes the normal
	// approximation: U = 2, sd = sqrt(25/12 × (11 − 24/90)), and the
	// continuity-corrected z = 10/sd gives p = erfc(z/√2).
	x, y := []float64{1, 2, 3, 3, 4}, []float64{3, 5, 6, 7, 8}
	const want = 0.03445363703947131
	if got := MannWhitney(x, y); math.Abs(got-want) > 1e-12 {
		t.Errorf("tied case: p = %v, want %v", got, want)
	}
	if got := MannWhitney(y, x); math.Abs(got-want) > 1e-12 {
		t.Errorf("tied case swapped: p = %v, want %v", got, want)
	}
}

func TestManhattan(t *testing.T) {
	a := map[uint32]uint64{1: 10, 2: 5}
	b := map[uint32]uint64{1: 7, 3: 4}
	// |10-7| + |5-0| + |0-4| = 12
	if got := Manhattan(a, b); got != 12 {
		t.Errorf("Manhattan = %d, want 12", got)
	}
	if got := Manhattan(a, a); got != 0 {
		t.Errorf("Manhattan(a,a) = %d, want 0", got)
	}
	if got := Manhattan(nil, b); got != 11 {
		t.Errorf("Manhattan(nil,b) = %d, want 11", got)
	}
}

func TestManhattanSymmetric(t *testing.T) {
	f := func(ka, va, kb, vb []uint8) bool {
		a := map[uint32]uint64{}
		b := map[uint32]uint64{}
		for i := range ka {
			if i < len(va) {
				a[uint32(ka[i]%8)] += uint64(va[i])
			}
		}
		for i := range kb {
			if i < len(vb) {
				b[uint32(kb[i]%8)] += uint64(vb[i])
			}
		}
		return Manhattan(a, b) == Manhattan(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManhattanTriangle(t *testing.T) {
	f := func(va, vb, vc [6]uint8) bool {
		mk := func(v [6]uint8) map[uint32]uint64 {
			m := map[uint32]uint64{}
			for i, x := range v {
				if x > 0 {
					m[uint32(i)] = uint64(x)
				}
			}
			return m
		}
		a, b, c := mk(va), mk(vb), mk(vc)
		return Manhattan(a, c) <= Manhattan(a, b)+Manhattan(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := &Series{Label: "x"}
	for i := 0; i < 100; i++ {
		s.Append(float64(i))
	}
	d := s.Downsample(10)
	if len(d.Values) != 10 {
		t.Fatalf("Downsample len = %d", len(d.Values))
	}
	if d.Label != "x" {
		t.Errorf("Downsample dropped label")
	}
	// Each chunk of 10 consecutive ints 10k..10k+9 has mean 10k+4.5.
	for i, v := range d.Values {
		if !almost(v, float64(10*i)+4.5) {
			t.Errorf("chunk %d mean = %v", i, v)
		}
	}
	// No-op cases.
	if got := s.Downsample(1000); got != s {
		t.Error("Downsample should return receiver when already small enough")
	}
	if got := s.Downsample(0); got != s {
		t.Error("Downsample(0) should be a no-op")
	}
}
