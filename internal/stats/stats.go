// Package stats provides the small statistical helpers used by the
// simulator and the experiment harness: means and medians, the
// Mann–Whitney U test, Manhattan distance between translation vectors
// and down-sampled time series for figure output.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MannWhitney returns the two-sided p-value of the Mann–Whitney U test
// that x and y are drawn from the same distribution. Without ties and
// with both samples smaller than 50 it uses the exact null distribution
// of U; otherwise the normal approximation with tie and continuity
// correction. It returns 1 when either sample is empty.
func MannWhitney(x, y []float64) float64 {
	m, n := len(x), len(y)
	if m == 0 || n == 0 {
		return 1
	}
	type point struct {
		v     float64
		fromX bool
	}
	pooled := make([]point, 0, m+n)
	for _, v := range x {
		pooled = append(pooled, point{v, true})
	}
	for _, v := range y {
		pooled = append(pooled, point{v, false})
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i].v < pooled[j].v })

	// Tied values share their mean rank; ties sums t³−t over the tie
	// groups for the variance correction.
	var rankX, ties float64
	for i := 0; i < len(pooled); {
		j := i
		for j < len(pooled) && pooled[j].v == pooled[i].v {
			j++
		}
		rank := float64(i+j+1) / 2 // mean of the 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if pooled[k].fromX {
				rankX += rank
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u := rankX - float64(m*(m+1))/2 // pairs with x > y, a tie counting ½
	mn := float64(m * n)
	if ties == 0 && m < 50 && n < 50 {
		// U is symmetric about mn/2, so the upper tail at u is the
		// lower tail at mn−u.
		return math.Min(1, 2*uCDF(m, n, int(math.Min(u, mn-u))))
	}
	total := float64(m + n)
	sd := math.Sqrt(mn / 12 * (total + 1 - ties/(total*(total-1))))
	if sd == 0 {
		return 1
	}
	z := math.Max(0, math.Abs(u-mn/2)-0.5) / sd
	return math.Erfc(z / math.Sqrt2)
}

// uCDF returns P(U ≤ u) for samples of sizes m and n without ties under
// the null hypothesis: the share of the C(m+n, m) orderings of the
// pooled sample whose U is at most u.
func uCDF(m, n, u int) float64 {
	// f[j][k] counts the orderings of i x-values and j y-values with
	// U = k, built up over i. The largest value is either an x, which
	// beats all j y-values (i−1, j, shifted by j), or a y, which beats
	// none (i, j−1).
	f := make([][]float64, n+1)
	for j := range f {
		f[j] = []float64{1}
	}
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			g := make([]float64, i*j+1)
			for k, c := range f[j] { // still i−1, j
				g[k+j] += c
			}
			for k, c := range f[j-1] { // already i, j−1
				g[k] += c
			}
			f[j] = g
		}
	}
	var below, all float64
	for k, c := range f[n] {
		all += c
		if k <= u {
			below += c
		}
	}
	return below / all
}

// Manhattan returns the Manhattan (L1) distance between two sparse count
// vectors keyed by translation ID. Keys missing from one vector count as
// zero, matching the paper's translation-vector comparison (Section V-B).
func Manhattan(a, b map[uint32]uint64) uint64 {
	var dist uint64
	for k, av := range a {
		bv := b[k]
		if av >= bv {
			dist += av - bv
		} else {
			dist += bv - av
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			dist += bv
		}
	}
	return dist
}

// Series is an append-only time series with a label, used to carry
// per-interval measurements (e.g. IPC per 10K instructions) to the
// figure renderers.
type Series struct {
	Label  string
	Values []float64
}

// Append adds a sample to the series.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// Downsample returns a series of at most n points, each the mean of an
// equal-length chunk of the original. It returns the series unchanged if
// it already has at most n points.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.Values) <= n {
		return s
	}
	out := &Series{Label: s.Label}
	chunk := float64(len(s.Values)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * chunk)
		hi := int(float64(i+1) * chunk)
		if hi > len(s.Values) {
			hi = len(s.Values)
		}
		if hi <= lo {
			hi = lo + 1
		}
		out.Append(Mean(s.Values[lo:hi]))
	}
	return out
}
