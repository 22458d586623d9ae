package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sampleN draws n variates of g.
func sampleN(g Gamma, rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = g.Sample(rng)
	}
	return out
}

func TestFitGammaMomentsRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth := Gamma{K: 1.2, Theta: 7}
	sample := sampleN(truth, rng, 50000)
	fit := FitGammaMoments(sample)
	if math.Abs(fit.K-truth.K)/truth.K > 0.1 {
		t.Errorf("moments k = %g, want ≈%g", fit.K, truth.K)
	}
	if math.Abs(fit.Theta-truth.Theta)/truth.Theta > 0.1 {
		t.Errorf("moments θ = %g, want ≈%g", fit.Theta, truth.Theta)
	}
}

func TestFitGammaMLERecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, truth := range []Gamma{{K: 1.2, Theta: 7}, {K: 4.8, Theta: 2}, {K: 0.7, Theta: 10}} {
		sample := sampleN(truth, rng, 50000)
		fit := FitGammaMLE(sample)
		if !fit.Valid() {
			t.Fatalf("MLE failed for %+v", truth)
		}
		if math.Abs(fit.K-truth.K)/truth.K > 0.08 {
			t.Errorf("MLE k = %g, want ≈%g", fit.K, truth.K)
		}
		if math.Abs(fit.Theta-truth.Theta)/truth.Theta > 0.08 {
			t.Errorf("MLE θ = %g, want ≈%g", fit.Theta, truth.Theta)
		}
		// MLE preserves the sample mean: k·θ = mean.
		s := Summarize(sample)
		if math.Abs(fit.Mean()-s.Mean)/s.Mean > 1e-6 {
			t.Errorf("MLE mean %g != sample mean %g", fit.Mean(), s.Mean)
		}
	}
}

func TestFitDegenerate(t *testing.T) {
	if FitGammaMoments(nil).Valid() {
		t.Error("empty sample must not fit")
	}
	if FitGammaMoments([]float64{5, 5, 5}).Valid() {
		t.Error("zero-variance sample must not fit")
	}
	if FitGammaMLE([]float64{0, -1}).Valid() {
		t.Error("non-positive sample must not fit")
	}
}

func TestDigammaKnownValues(t *testing.T) {
	// ψ(1) = −γ (Euler–Mascheroni).
	if got := digamma(1); math.Abs(got+0.5772156649) > 1e-8 {
		t.Errorf("ψ(1) = %g", got)
	}
	// Recurrence ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.5, 1.7, 3.2, 9.4} {
		if d := digamma(x+1) - digamma(x) - 1/x; math.Abs(d) > 1e-9 {
			t.Errorf("recurrence broken at %g: %g", x, d)
		}
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	// ψ'(1) = π²/6.
	if got := trigamma(1); math.Abs(got-math.Pi*math.Pi/6) > 1e-8 {
		t.Errorf("ψ'(1) = %g", got)
	}
	// Recurrence ψ'(x+1) = ψ'(x) − 1/x².
	for _, x := range []float64{0.5, 2.3, 7.7} {
		if d := trigamma(x+1) - trigamma(x) + 1/(x*x); math.Abs(d) > 1e-9 {
			t.Errorf("recurrence broken at %g: %g", x, d)
		}
	}
}

func TestKSStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Gamma{K: 2, Theta: 3}
	sample := sampleN(g, rng, 2000)
	ks := KSStatistic(sample, g)
	crit := 1.36 / math.Sqrt(2000)
	if ks > 1.5*crit {
		t.Errorf("KS = %g for a true-model sample (critical %g)", ks, crit)
	}
	// A wrong model must score worse.
	wrong := KSStatistic(sample, Gamma{K: 9, Theta: 0.3})
	if wrong <= ks {
		t.Errorf("wrong model KS %g not worse than true %g", wrong, ks)
	}
	if KSStatistic(nil, g) != 1 {
		t.Error("empty sample should score 1")
	}
	if KSStatistic(sample, Gamma{}) != 1 {
		t.Error("invalid model should score 1")
	}
}

func TestGammaQuantile(t *testing.T) {
	g := Gamma{K: 4.8, Theta: 7}
	// Quantile inverts the CDF.
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99} {
		q := g.Quantile(p)
		if back := g.CDF(q); math.Abs(back-p) > 1e-6 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
	// Monotone.
	if g.Quantile(0.2) >= g.Quantile(0.8) {
		t.Error("quantile not monotone")
	}
	// For k=1 (exponential), median = θ·ln2.
	e := Gamma{K: 1, Theta: 3}
	if got, want := e.Quantile(0.5), 3*math.Ln2; math.Abs(got-want) > 1e-6 {
		t.Errorf("exponential median = %g, want %g", got, want)
	}
	// Degenerate inputs.
	if !math.IsNaN(g.Quantile(1.5)) || !math.IsNaN(g.Quantile(-0.1)) {
		t.Error("out-of-range p should give NaN")
	}
	if g.Quantile(0) != 0 {
		t.Error("Quantile(0) should be 0")
	}
	if !math.IsNaN(Gamma{}.Quantile(0.5)) {
		t.Error("invalid distribution should give NaN")
	}
}

// NearestRank reads the ⌈q·n⌉−1-th element of a sorted slice, clamped to
// it: the speculation scan's leave-one-out quantile and the suite's
// percentile rows.
func TestEmpiricalPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.999, 10}, {0, 1}, {1, 10}, {-1, 1}, {2, 10},
	} {
		if got := NearestRank(xs, c.q); got != c.want {
			t.Errorf("NearestRank(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := NearestRank(xs[:1], 0.75); got != 1 {
		t.Errorf("single sample = %g", got)
	}
	if NearestRank(nil, 0.5) != 0 {
		t.Error("empty samples should give 0")
	}
}
