package stats

import "math"

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

// NearestRank returns the nearest-rank q-quantile (0..1) of an ascending
// slice: the element at ⌈q·n⌉−1, clamped to the slice; 0 when it is empty.
// The speculation scan calls it on the engine's hot path, so it stays
// inlinable and does not copy.
func NearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
