// Package stats provides the statistical substrate used by DataNet's
// workload-imbalance analysis (paper §II-B): Gamma distribution sampling and
// CDF evaluation, plus summary statistics and histogram helpers used across
// the experiment harness.
//
// The paper models the amount of a sub-dataset held by one HDFS block as
// X ~ Γ(k, θ); the workload of a node processing n/m random blocks is then
// Z ~ Γ(nk/m, θ). Figure 2 plots tail probabilities of Z as the cluster
// size m grows, which requires the regularized lower incomplete gamma
// function implemented here.
package stats

import (
	"math"
	"math/rand"
)

// Gamma is a Gamma distribution with shape k and scale theta.
// Its mean is k*theta and its variance k*theta^2.
type Gamma struct {
	// K is the shape parameter (must be > 0).
	K float64
	// Theta is the scale parameter (must be > 0).
	Theta float64
}

// Valid reports whether the distribution parameters are usable.
func (g Gamma) Valid() bool { return g.K > 0 && g.Theta > 0 }

// Mean returns k*theta.
func (g Gamma) Mean() float64 { return g.K * g.Theta }

// Variance returns k*theta^2.
func (g Gamma) Variance() float64 { return g.K * g.Theta * g.Theta }

// PDF evaluates the density at x.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 || !g.Valid() {
		return 0
	}
	if x == 0 {
		if g.K < 1 {
			return math.Inf(1)
		}
		if g.K == 1 {
			return 1 / g.Theta
		}
		return 0
	}
	lg, _ := math.Lgamma(g.K)
	logp := (g.K-1)*math.Log(x) - x/g.Theta - lg - g.K*math.Log(g.Theta)
	return math.Exp(logp)
}

// CDF returns P(X <= x) using the regularized lower incomplete gamma
// function P(k, x/theta).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 || !g.Valid() {
		return 0
	}
	return RegularizedGammaP(g.K, x/g.Theta)
}

// Tail returns P(X > x) = 1 - CDF(x).
func (g Gamma) Tail(x float64) float64 { return 1 - g.CDF(x) }

// Sample draws one variate using the Marsaglia–Tsang squeeze method
// (for k >= 1) with the standard boost for k < 1.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	if !g.Valid() {
		return 0
	}
	k := g.K
	boost := 1.0
	if k < 1 {
		// Γ(k) = Γ(k+1) * U^(1/k)
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * g.Theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * g.Theta
		}
	}
}

// RegularizedGammaP computes P(a, x) = γ(a, x) / Γ(a), the regularized
// lower incomplete gamma function, using the series expansion for
// x < a+1 and the continued fraction for x >= a+1 (Numerical Recipes
// style, implemented from the standard formulas).
func RegularizedGammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaPSeries(a, x)
	default:
		return 1 - gammaQContinuedFraction(a, x)
	}
}

const (
	gammaEps     = 1e-14
	gammaMaxIter = 10000
)

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// NodeWorkload returns the distribution of the workload processed by one
// node of an m-node cluster when n blocks, each holding X ~ Γ(k, θ) bytes
// of the sub-dataset, are split evenly: Z ~ Γ(nk/m, θ) (paper Eq. 2).
func NodeWorkload(block Gamma, nBlocks, mNodes int) Gamma {
	if nBlocks <= 0 || mNodes <= 0 {
		return Gamma{}
	}
	return Gamma{K: float64(nBlocks) * block.K / float64(mNodes), Theta: block.Theta}
}

// ImbalanceProbabilities evaluates the four curves of paper Figure 2 for a
// given cluster size: P(Z < E/3), P(Z < E/2), P(Z > 2E) and P(Z > 3E),
// where E = E[Z] is the balanced (expected) per-node workload.
type ImbalanceProbabilities struct {
	BelowThird  float64 // P(Z < E/3)
	BelowHalf   float64 // P(Z < E/2)
	AboveDouble float64 // P(Z > 2E)
	AboveTriple float64 // P(Z > 3E)
}

// Imbalance computes the Figure-2 probabilities for cluster size m.
func Imbalance(block Gamma, nBlocks, mNodes int) ImbalanceProbabilities {
	z := NodeWorkload(block, nBlocks, mNodes)
	e := z.Mean()
	return ImbalanceProbabilities{
		BelowThird:  z.CDF(e / 3),
		BelowHalf:   z.CDF(e / 2),
		AboveDouble: z.Tail(2 * e),
		AboveTriple: z.Tail(3 * e),
	}
}
