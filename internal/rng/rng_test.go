package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct seeds coincided %d/1000 times", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	var zeroes int
	for i := 0; i < 100; i++ {
		if s.Uint64() == 0 {
			zeroes++
		}
	}
	if zeroes > 1 {
		t.Fatalf("zero-seeded generator emitted %d zeroes in 100 draws", zeroes)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	cases := []struct {
		p    float64
		want float64
	}{
		{-0.5, 0}, {0, 0}, {0.25, 0.25}, {0.75, 0.75}, {1, 1}, {1.5, 1},
	}
	const n = 50000
	for _, c := range cases {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bool(c.p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-c.want) > 0.02 {
			t.Fatalf("Bool(%v) hit rate = %v, want ~%v", c.p, got, c.want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(31)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	s := New(37)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 50)
		p := s.Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}
