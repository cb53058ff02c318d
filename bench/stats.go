package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, capped at p99. A tail resting on fewer samples
// moves with single outliers. Below 21 samples that percentile would
// fall under the median, so tail returns the maximum instead.
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n < 21 {
		return s[n-1]
	}
	return s[min(int(math.Ceil(0.99*float64(n)))-1, n-11)]
}

// degreeKS is the Kolmogorov–Smirnov distance between the empirical
// degree distributions of two graphs, given as degree sequences: the
// largest gap between their cumulative distribution functions.
func degreeKS(a, b []int) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	sa := append([]int(nil), a...)
	sb := append([]int(nil), b...)
	sort.Ints(sa)
	sort.Ints(sb)
	var i, j int
	var d float64
	for i < len(sa) || j < len(sb) {
		var x int
		switch {
		case i == len(sa):
			x = sb[j]
		case j == len(sb):
			x = sa[i]
		default:
			x = min(sa[i], sb[j])
		}
		for i < len(sa) && sa[i] == x {
			i++
		}
		for j < len(sb) && sb[j] == x {
			j++
		}
		gap := math.Abs(float64(i)/float64(len(sa)) - float64(j)/float64(len(sb)))
		d = max(d, gap)
	}
	return d
}
