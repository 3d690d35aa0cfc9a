package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the sorted values by
// linear interpolation; NaN when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqrSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method) — the figure the
// benchmark contract bounds.
func iqrSpread(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= n-1:
			return s[n-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return (at(3) - at(1)) / at(2)
}

// segmentSpread splits the samples, in arrival order, into five equal
// segments and returns (max − min) / median of the segment medians: how
// much the figure drifted within one run.
func segmentSpread(v []float64) float64 {
	const segments = 5
	if len(v) < segments {
		return 0
	}
	meds := make([]float64, segments)
	for i := range meds {
		meds[i] = median(v[i*len(v)/segments : (i+1)*len(v)/segments])
	}
	s := sortedCopy(meds)
	return (s[segments-1] - s[0]) / s[segments/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
