package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank q-quantile (0 < q <= 1) of samples.
// It sorts a copy, so callers may keep using their slice.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least ten
// samples beyond it — the rule for printing a tail percentile at all.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// quartiles returns the first and third quartiles with the same
// exclusive method as Python's statistics.quantiles(values, n=4), so a
// steadiness table here matches one computed from the printed results.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// exactMedian is the interpolated median (Python's statistics.median).
func exactMedian(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
