package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank q-quantile of xs: the smallest value
// with at least a share q of the sample at or below it (0 for an empty
// sample).
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1
	return s[min(max(k, 0), n-1)]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count; 0 for an empty sample).
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
