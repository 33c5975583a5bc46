package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle two for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailRungs are the percentiles a tail figure may be reported at.
var tailRungs = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailRungs that has at least ten
// samples beyond it, the value at that percentile (nearest rank), and
// the rung itself. Fewer than eleven samples yield the maximum at rung
// 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailRungs {
		// The tolerance absorbs rounding in n·(100−p)/100.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			rank := int(math.Ceil(p / 100 * float64(n)))
			return s[rank-1], p
		}
	}
	return s[n-1], 100
}

// thin keeps at most max evenly spaced samples of xs (every k-th), so a
// tail figure is taken at the same percentile whatever the run length.
func thin(xs []float64, max int) []float64 {
	if len(xs) <= max {
		return xs
	}
	k := (len(xs) + max - 1) / max
	out := make([]float64, 0, max)
	for i := 0; i < len(xs); i += k {
		out = append(out, xs[i])
	}
	return out
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailLabel renders a tail figure's percentile and sample count.
func tailLabel(pct float64, n int) string {
	return fmt.Sprintf("p%g of %d samples", pct, n)
}

// splitmix is the seeded generator behind every benchmark input
// (splitmix64, Steele et al.).
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 is splitmix's output function: a bijective scramble used by the
// exactly-once checksums.
func mix64(x uint64) uint64 {
	r := splitmix{x}
	return r.next()
}
