package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the usual reporting percentiles
// (99, 95, 90, 75) that still has at least ten samples beyond it, and its
// value; with fewer than forty samples none qualifies and it returns
// (50, median).
func tailPercentile(xs []float64) (p int, v float64) {
	n := len(xs)
	for _, p := range []int{99, 95, 90, 75} {
		if beyond := n - int(math.Ceil(float64(n)*float64(p)/100)); beyond >= 10 {
			return p, percentile(xs, p)
		}
	}
	return 50, median(xs)
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(float64(len(s))*float64(p)/100)) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

// quartiles returns the first and third quartile by the exclusive method,
// the one Python's statistics.quantiles(values, n=4) uses, so the spread
// this benchmark prints is the spread its driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i in 1..3
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// geomean is the geometric mean of the positive values; 0 if there is none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
