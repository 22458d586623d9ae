package stats

import "math/rand"

// Exponential draws an exponential variate with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}
