package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
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

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method), so
// the spread report reads the same as the acceptance rule.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// binomialAllowance is the fewest successes out of n trials that a process
// succeeding with probability theta reaches with probability at least
// 1-alpha: the largest k with P(X < k) <= alpha for X ~ Binomial(n, theta).
// A run whose inputs meet the requirement fewer than k times refutes the
// theta-confidence guarantee at level alpha.
func binomialAllowance(n int, theta, alpha float64) int {
	cdf := 0.0 // P(X < k)
	for k := 0; k <= n; k++ {
		pk := math.Exp(lgammaInt(n+1) - lgammaInt(k+1) - lgammaInt(n-k+1) +
			float64(k)*math.Log(theta) + float64(n-k)*math.Log1p(-theta))
		if cdf+pk > alpha {
			return k
		}
		cdf += pk
	}
	return n
}

func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}
