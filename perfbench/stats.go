package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the numpy default). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ratio is a/b, or 0 when b is 0 (JSON has no NaN or Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
