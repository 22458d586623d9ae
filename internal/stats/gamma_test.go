package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGammaValid(t *testing.T) {
	cases := []struct {
		g    Gamma
		want bool
	}{
		{Gamma{K: 1, Theta: 1}, true},
		{Gamma{K: 0.5, Theta: 7}, true},
		{Gamma{K: 0, Theta: 1}, false},
		{Gamma{K: 1, Theta: 0}, false},
		{Gamma{K: -1, Theta: -1}, false},
	}
	for _, c := range cases {
		if got := c.g.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.g, got, c.want)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	g := Gamma{K: 1.2, Theta: 7}
	if got, want := g.Mean(), 8.4; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if got, want := g.Variance(), 1.2*49.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
}

// For k=1 the Gamma distribution is exponential: CDF(x) = 1 - e^{-x/θ}.
func TestGammaCDFExponentialIdentity(t *testing.T) {
	g := Gamma{K: 1, Theta: 2}
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x/2)
		if got := g.CDF(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("CDF(%g) = %.12f, want %.12f", x, got, want)
		}
	}
}

// For integer k, the Gamma CDF has the Erlang closed form
// 1 - e^{-x/θ} Σ_{i<k} (x/θ)^i / i!.
func TestGammaCDFErlangIdentity(t *testing.T) {
	g := Gamma{K: 3, Theta: 1.5}
	for _, x := range []float64{0.5, 1, 3, 4.5, 9} {
		u := x / 1.5
		want := 1 - math.Exp(-u)*(1+u+u*u/2)
		if got := g.CDF(x); math.Abs(got-want) > 1e-9 {
			t.Errorf("CDF(%g) = %.12f, want %.12f", x, got, want)
		}
	}
}

func TestGammaCDFMonotoneAndBounded(t *testing.T) {
	g := Gamma{K: 1.2, Theta: 7}
	prev := -1.0
	for x := 0.0; x <= 200; x += 0.5 {
		c := g.CDF(x)
		if c < 0 || c > 1 {
			t.Fatalf("CDF(%g) = %g out of [0,1]", x, c)
		}
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %g: %g < %g", x, c, prev)
		}
		prev = c
	}
	if got := g.CDF(1e6); got < 0.999999 {
		t.Errorf("CDF(1e6) = %g, want ≈1", got)
	}
}

func TestGammaPDFIntegratesToCDF(t *testing.T) {
	g := Gamma{K: 2.5, Theta: 3}
	// Trapezoidal integral of the PDF up to x should match the CDF.
	const dx = 0.001
	sum := 0.0
	x := 0.0
	for x < 20 {
		sum += (g.PDF(x) + g.PDF(x+dx)) / 2 * dx
		x += dx
	}
	if got := g.CDF(20); math.Abs(got-sum) > 1e-4 {
		t.Errorf("∫pdf = %.6f, CDF = %.6f", sum, got)
	}
}

func TestGammaTailComplement(t *testing.T) {
	g := Gamma{K: 4.8, Theta: 7}
	if err := quick.Check(func(raw float64) bool {
		x := math.Abs(raw)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		return math.Abs(g.CDF(x)+g.Tail(x)-1) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range []Gamma{{K: 1.2, Theta: 7}, {K: 0.5, Theta: 2}, {K: 9, Theta: 0.5}} {
		const n = 200000
		var sum, sq float64
		for i := 0; i < n; i++ {
			v := g.Sample(rng)
			if v < 0 {
				t.Fatalf("negative sample %g from %+v", v, g)
			}
			sum += v
			sq += v * v
		}
		mean := sum / n
		variance := sq/n - mean*mean
		if rel := math.Abs(mean-g.Mean()) / g.Mean(); rel > 0.02 {
			t.Errorf("sample mean of %+v = %g (want %g, rel err %g)", g, mean, g.Mean(), rel)
		}
		if rel := math.Abs(variance-g.Variance()) / g.Variance(); rel > 0.05 {
			t.Errorf("sample variance of %+v = %g (want %g)", g, variance, g.Variance())
		}
	}
}

func TestRegularizedGammaIdentities(t *testing.T) {
	// P stays in [0, 1] and non-decreasing in x across the
	// series/continued-fraction switchover at x = a+1.
	for _, a := range []float64{0.3, 1, 2.7, 10, 48} {
		prev := 0.0
		for _, x := range []float64{0.01 * a, 0.5 * a, a, a + 1, 3*a + 1, 10*a + 1} {
			p := RegularizedGammaP(a, x)
			if p < 0 || p > 1 {
				t.Errorf("P(%g,%g) = %g out of range", a, x, p)
			}
			if p < prev-1e-12 {
				t.Errorf("P(%g,%g) = %g below P at a smaller x (%g)", a, x, p, prev)
			}
			prev = p
		}
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) {
		t.Error("P(-1,1) should be NaN")
	}
	if RegularizedGammaP(2, 0) != 0 {
		t.Error("P(a,0) should be 0")
	}
}

func TestNodeWorkload(t *testing.T) {
	z := NodeWorkload(Gamma{K: 1.2, Theta: 7}, 512, 128)
	if math.Abs(z.K-4.8) > 1e-12 || z.Theta != 7 {
		t.Errorf("NodeWorkload = %+v, want K=4.8 Theta=7", z)
	}
	if got := NodeWorkload(Gamma{K: 1, Theta: 1}, 0, 4); got.Valid() {
		t.Error("zero blocks should give invalid distribution")
	}
}

// Paper §II-B: the probability of extreme workloads increases with the
// cluster size, and at m=128 roughly 4 nodes exceed twice the average.
func TestImbalanceGrowsWithClusterSize(t *testing.T) {
	block := Gamma{K: 1.2, Theta: 7}
	prev := Imbalance(block, 512, 2)
	for m := 4; m <= 448; m *= 2 {
		cur := Imbalance(block, 512, m)
		if cur.AboveDouble < prev.AboveDouble-1e-12 {
			t.Errorf("P(Z>2E) not increasing at m=%d: %g < %g", m, cur.AboveDouble, prev.AboveDouble)
		}
		if cur.BelowHalf < prev.BelowHalf-1e-12 {
			t.Errorf("P(Z<E/2) not increasing at m=%d", m)
		}
		prev = cur
	}
	p128 := Imbalance(block, 512, 128)
	if above := 128 * p128.AboveDouble; above < 3 || above > 5 {
		t.Errorf("E[#nodes>2E] at m=128 = %.2f, paper reports 4.0", above)
	}
}

// Paper §II-B counts extreme nodes: m·P(Z < E/2) nodes below half the
// balanced workload and m·P(Z > 2E) above twice it, ≈ 4 at m = 128.
func TestExpectedExtremeNodes(t *testing.T) {
	im := Imbalance(Gamma{K: 1.2, Theta: 7}, 512, 128)
	below, above := 128*im.BelowHalf, 128*im.AboveDouble
	if below <= 0 || above <= 0 {
		t.Fatalf("expected positive extreme-node counts, got %g, %g", below, above)
	}
	if above < 3 || above > 5 {
		t.Errorf("above = %g, want ≈4", above)
	}
}
