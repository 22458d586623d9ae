package stats

import "math"

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N    int
	Min  float64
	Max  float64
	Mean float64
	Std  float64 // population standard deviation
	Sum  float64
}

// Summarize computes a Summary over xs. An empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	return s
}

// CV returns the coefficient of variation (Std/Mean), 0 when the mean is 0.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Std / s.Mean
}

// ImbalanceRatio returns Max/Mean, the standard skew indicator used in the
// paper's workload plots; 0 when the mean is 0.
func (s Summary) ImbalanceRatio() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Max / s.Mean
}
