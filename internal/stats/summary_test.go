package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Sum != 10 || s.Mean != 2.5 {
		t.Fatalf("unexpected summary %+v", s)
	}
	wantStd := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-wantStd) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, wantStd)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Std != 0 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummaryRatios(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.ImbalanceRatio(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ImbalanceRatio = %g, want 1.5", got)
	}
	if got := s.CV(); got <= 0 {
		t.Errorf("CV = %g, want > 0", got)
	}
	zero := Summary{}
	if zero.CV() != 0 || zero.ImbalanceRatio() != 0 {
		t.Error("zero-mean ratios should be 0")
	}
}

// Summarize invariants: Min <= Mean <= Max, Std >= 0.
func TestSummarizeInvariantsQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 && s.Std >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Weight returns the probability mass of rank i: the analytic reference
// the draw tests compare frequencies against.
func (z *Zipf) Weight(i int) float64 {
	if i < 0 || i >= len(z.cdf) {
		return 0
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}

func TestZipfWeightsAndDraw(t *testing.T) {
	z := NewZipf(100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	var sum float64
	prev := math.Inf(1)
	for i := 0; i < z.N(); i++ {
		w := z.Weight(i)
		if w <= 0 || w > prev+1e-15 {
			t.Fatalf("weights not positive-decreasing at %d: %g (prev %g)", i, w, prev)
		}
		prev = w
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g, want 1", sum)
	}
	if z.Weight(-1) != 0 || z.Weight(100) != 0 {
		t.Error("out-of-range weights should be 0")
	}

	rng := rand.New(rand.NewSource(3))
	counts := make([]int, z.N())
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw(rng)]++
	}
	// Empirical head frequency tracks the analytic weight.
	if got, want := float64(counts[0])/n, z.Weight(0); math.Abs(got-want) > 0.01 {
		t.Errorf("rank-0 frequency %g, want ≈%g", got, want)
	}
	// Heavier ranks drawn more often (allowing sampling noise on the tail).
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) should outdraw rank 50 (%d)", counts[0], counts[50])
	}
}

func TestZipfDegenerate(t *testing.T) {
	z := NewZipf(0, 1) // corrected to 1 item
	if z.N() != 1 || z.Weight(0) != 1 {
		t.Errorf("degenerate zipf: N=%d w0=%g", z.N(), z.Weight(0))
	}
	rng := rand.New(rand.NewSource(1))
	if z.Draw(rng) != 0 {
		t.Error("single-item draw must be 0")
	}
	u := NewZipf(10, 0) // uniform
	if math.Abs(u.Weight(0)-0.1) > 1e-12 || math.Abs(u.Weight(9)-0.1) > 1e-12 {
		t.Errorf("uniform weights: %g, %g", u.Weight(0), u.Weight(9))
	}
}

func TestExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Exponential(rng, 10)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.3 {
		t.Errorf("Exponential mean = %g, want ≈10", mean)
	}
	if Exponential(rng, 0) != 0 {
		t.Error("zero mean must give 0")
	}
}
