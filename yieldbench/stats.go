package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (v is not modified). It returns 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// binomialTolerance is the largest |estimate − reference| accepted for a
// pass-rate estimate from n samples against a reference from nRef samples:
// five standard deviations of the difference, with the variance taken at
// the reference rate plus a 1/n floor so that rates at 0 or 1 still allow
// one sample's worth of disagreement. A correct estimator fails it with
// probability below 1e-6.
func binomialTolerance(ref float64, n, nRef int) float64 {
	pq := ref * (1 - ref)
	v := (pq+1/float64(n))/float64(n) + pq/float64(nRef)
	return 5 * math.Sqrt(v)
}
