package stats

import (
	"math"
	"sort"
)

// Quantile returns the inverse CDF of the Gamma distribution at p ∈ (0,1),
// computed by bisection on the monotone CDF (plenty fast for experiment
// workloads and dead simple to verify). Returns NaN for invalid inputs.
func (g Gamma) Quantile(p float64) float64 {
	if !g.Valid() || math.IsNaN(p) || p <= 0 || p >= 1 {
		if p == 0 {
			return 0
		}
		return math.NaN()
	}
	// Bracket: the mean plus enough standard deviations always covers
	// p < 1; grow until the CDF passes p.
	lo, hi := 0.0, g.Mean()+4*math.Sqrt(g.Variance())+1
	for g.CDF(hi) < p {
		hi *= 2
		if math.IsInf(hi, 1) {
			return math.NaN()
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// Percentile returns the p-th (0..1) empirical percentile of xs using the
// nearest-rank method.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
