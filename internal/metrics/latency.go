package metrics

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// LatencyBounds are the Prometheus bucket bounds (seconds) of every
// wall-clock latency, from cache hits (tens of µs) to cold plans.
var LatencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// latencyBuckets counts whole nanoseconds: bucket i < 128 holds i ns, and
// above that each power of two splits into 64 buckets, none wider than
// 1/64 of its low edge. The last also holds all from 2^37 ns (≈ 137 s) up.
const latencyBuckets = 2048

func latencyBucket(ns uint64) int {
	if ns < 128 {
		return int(ns)
	}
	e := bits.Len64(ns) - 7 // ns>>e is in [64, 128)
	return min(e<<6+int(ns>>e), latencyBuckets-1)
}

// latencyEdge is the low edge (ns) of bucket i.
func latencyEdge(i int) uint64 {
	if i < 128 {
		return uint64(i)
	}
	return uint64(i&63|64) << (i>>6 - 1)
}

// Latency is a fixed-size (≈ 16 KB), lock-free histogram of wall-clock
// durations in seconds, for paths that observe without bound. Count, sum,
// min and max (in whole ns) and the counts at LatencyBounds are exact; a
// quantile is its nearest-rank value's bucket midpoint clamped to [Min,
// Max], so within 1% of it, but Max when that bucket is the last. Merging
// adds counters, so it is exact. The zero value is ready; do not copy it.
type Latency struct {
	buckets [latencyBuckets]atomic.Uint64
	le      [len(LatencyBounds) + 1]atomic.Uint64 // per bound interval (float64 ≤), +Inf last
	sumNs   atomic.Uint64
	maxNs   atomic.Uint64
	minInv  atomic.Uint64 // ^(min ns): zero while empty
}

// Observe records one duration in seconds, rounded to whole ns and
// clamped to [0, 2^62] ns; NaN is dropped.
func (l *Latency) Observe(seconds float64) {
	if math.IsNaN(seconds) {
		return
	}
	ns := uint64(min(max(math.Round(seconds*1e9), 0), 1<<62))
	l.buckets[latencyBucket(ns)].Add(1)
	l.sumNs.Add(ns)
	storeMax(&l.maxNs, ns)
	storeMax(&l.minInv, ^ns)
	l.le[sort.SearchFloat64s(LatencyBounds[:], seconds)].Add(1)
}

func storeMax(a *atomic.Uint64, v uint64) {
	for old := a.Load(); v > old && !a.CompareAndSwap(old, v); old = a.Load() {
	}
}

// Merge adds other's counters into l; into a zero Latency, it takes a
// snapshot. Observe counts in le last and Merge reads le first, so every
// value a snapshot counts is in its buckets, sum, min and max too.
func (l *Latency) Merge(other *Latency) {
	for i := range other.le {
		l.le[i].Add(other.le[i].Load())
	}
	for i := range other.buckets {
		if c := other.buckets[i].Load(); c != 0 {
			l.buckets[i].Add(c)
		}
	}
	l.sumNs.Add(other.sumNs.Load())
	storeMax(&l.maxNs, other.maxNs.Load())
	storeMax(&l.minInv, other.minInv.Load())
}

// Buckets returns the cumulative counts at LatencyBounds, +Inf (Count)
// last.
func (l *Latency) Buckets() (cum [len(LatencyBounds) + 1]uint64) {
	for i, n := 0, uint64(0); i < len(cum); i++ {
		n += l.le[i].Load()
		cum[i] = n
	}
	return cum
}

// Count, Sum and Max are the observations' number, total and largest
// value (seconds).
func (l *Latency) Count() uint64 { return l.Buckets()[len(LatencyBounds)] }
func (l *Latency) Sum() float64  { return float64(l.sumNs.Load()) / 1e9 }
func (l *Latency) Max() float64  { return float64(l.maxNs.Load()) / 1e9 }

// Min returns the smallest observation (0 when empty).
func (l *Latency) Min() float64 {
	if inv := l.minInv.Load(); inv != 0 {
		return float64(^inv) / 1e9
	}
	return 0
}

// Quantile returns the nearest-rank q-quantile, the ⌈q·n⌉-th smallest
// value (q clamped to [0,1]), at bucket resolution; 0 when empty.
func (l *Latency) Quantile(q float64) float64 {
	n := float64(l.Count())
	if n == 0 {
		return 0
	}
	rank, cum := uint64(min(max(math.Ceil(q*n), 1), n)), uint64(0)
	for i := range l.buckets[:latencyBuckets-1] {
		if cum += l.buckets[i].Load(); cum >= rank {
			mid := (latencyEdge(i) + latencyEdge(i+1) - 1) / 2
			return min(max(float64(mid)/1e9, l.Min()), l.Max())
		}
	}
	return l.Max()
}

// MarshalJSON writes the histogram as its summary, like Histogram's.
func (l *Latency) MarshalJSON() ([]byte, error) {
	n := l.Count()
	return json.Marshal(HistogramSummary{
		Count: int(n), Sum: l.Sum(), Min: l.Min(), Max: l.Max(), Mean: l.Sum() / max(float64(n), 1),
		P50: l.Quantile(0.50), P90: l.Quantile(0.90), P99: l.Quantile(0.99),
	})
}
