package stats

import (
	"math"
	"math/rand"
)

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the cumulative distribution so draws are
// O(log n) via binary search, which keeps large-catalogue dataset
// generation cheap.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n items with exponent s (s >= 0;
// s == 0 degenerates to uniform).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		n = 1
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Draw samples one rank.
func (z *Zipf) Draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
