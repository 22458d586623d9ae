package metrics

import (
	"encoding/json"
	"math"
	"sort"
)

// Histogram is a distribution of float64 observations in simulated time
// (task durations, per-node busy times, detection latencies, …).
// Observations are retained exactly, so quantiles are exact and
// interpolated: a run bounds how many values it observes (thousands, not
// millions), and the suite's goldens pin those quantiles to the last
// digit. Wall-clock latencies, which arrive without bound, go to Latency
// instead. The zero value is ready to use.
type Histogram struct {
	values []float64
	sum    float64
	sorted bool
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. NaN observations are dropped: they would
// poison every quantile downstream.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.values = append(h.values, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return len(h.values) }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 { return h.sum / float64(max(len(h.values), 1)) }

// Min and Max return the smallest and largest observation (0 when empty).
func (h *Histogram) Min() float64 { return h.Quantile(0) }
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// Quantile returns the q-quantile (q in [0,1]) with linear interpolation
// between order statistics; out-of-range q values are clamped. Empty
// histograms return 0.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.values) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.values)
		h.sorted = true
	}
	pos := min(max(q, 0), 1) * float64(len(h.values)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return h.values[lo]
	}
	frac := pos - float64(lo)
	return h.values[lo]*(1-frac) + h.values[hi]*frac
}

// HistogramSummary is the machine-readable digest of a histogram.
type HistogramSummary struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Summary digests the histogram.
func (h *Histogram) Summary() HistogramSummary {
	return HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// MarshalJSON serializes the histogram as its summary, so snapshots stay
// compact and field order (hence byte output) is deterministic.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.Summary())
}
