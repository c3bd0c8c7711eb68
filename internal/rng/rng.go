// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Determinism matters more than statistical strength here: every workload,
// experiment and test must produce identical instruction streams on every
// run and platform so that paper figures regenerate reproducibly. The
// package therefore implements its own xoshiro256** generator (seeded via
// splitmix64) instead of depending on the evolving behaviour of math/rand.
package rng

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used only to expand a single 64-bit seed into generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams; the same seed always yields the same stream.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// Reseed resets the generator state as if it had been created by New(seed).
func (s *Source) Reseed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	// xoshiro must not start from the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Intn returns a value uniformly distributed in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a value uniformly distributed in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	if n&(n-1) == 0 {
		// Power-of-two range: the mask selects exactly the bits the
		// modulo would keep, skipping a 64-bit division on the hot
		// address-generation path. The result is bit-identical.
		return s.Uint64() & (n - 1)
	}
	return s.Uint64() % n
}

// Float64 returns a value uniformly distributed in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
