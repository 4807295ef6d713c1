package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own arithmetic instead of using internal/stats
// (nearest-rank percentiles): a later change to the repository must not
// be able to change what the benchmark computes.

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles placed the way Python's
// statistics.quantiles(xs, n=4) places them (exclusive method), which is
// how the contract defines a metric's run-to-run spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
