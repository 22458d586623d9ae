package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minMax returns the extremes of xs; zeros for an empty slice.
func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) of xs. With
// fewer than 100/(100-p) samples it is the maximum.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder lists the tail percentiles the benchmark reports, highest
// first, each with the share of samples beyond it in thousandths.
var tailLadder = []struct {
	p      float64
	beyond int
}{{99.9, 1}, {99, 10}, {90, 100}, {50, 500}}

// highestPercentile picks from tailLadder the highest percentile that still
// has at least ten of n samples beyond it, the rule the choosing-metrics
// guide sets for reporting a tail; with n < 20 not even the median
// qualifies and it returns 50.
func highestPercentile(n int) float64 {
	for _, t := range tailLadder {
		if n*t.beyond >= 10*1000 {
			return t.p
		}
	}
	return 50
}
