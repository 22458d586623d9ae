package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"datanet/internal/stats"
)

func observed(vs []float64) *Latency {
	l := new(Latency)
	for _, v := range vs {
		l.Observe(v)
	}
	return l
}

func mergeParts(seed int64) (parts []*Latency, all []float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range 5 {
		vs := make([]float64, 100+rng.Intn(400))
		for j := range vs {
			vs[j] = rng.ExpFloat64() * float64(i+1) / 1e3
		}
		all = append(all, vs...)
		parts = append(parts, observed(vs))
	}
	return parts, all
}

func mergeAll(parts []*Latency) *Latency {
	merged := new(Latency)
	for _, p := range parts {
		merged.Merge(p)
	}
	return merged
}

// Merging latency histograms equals one histogram that observed their
// union, counter for counter, so every quantile of the merge is the
// union's quantile exactly.
func TestHistogramMergeQuantilesExact(t *testing.T) {
	parts, all := mergeParts(42)
	merged, ref := mergeAll(parts), observed(all)
	if !reflect.DeepEqual(merged, ref) {
		t.Fatal("merged parts differ from the histogram of their union")
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := merged.Quantile(q), ref.Quantile(q); got != want {
			t.Errorf("q%.2f: merged %v, union %v", q, got, want)
		}
	}
	if merged.Count() != uint64(len(all)) || merged.Sum() != ref.Sum() {
		t.Errorf("merged count %d sum %v, want %d and %v", merged.Count(), merged.Sum(), len(all), ref.Sum())
	}
}

// The Prometheus buckets of a merge are the sums of the parts' buckets —
// the property the cluster metric rollup relies on.
func TestHistogramBucketsMergeEquivalence(t *testing.T) {
	parts, all := mergeParts(9)
	want := observed(all).Buckets()
	var sum [len(LatencyBounds) + 1]uint64
	for _, p := range parts {
		for i, c := range p.Buckets() {
			sum[i] += c
		}
	}
	if got := mergeAll(parts).Buckets(); got != sum || got != want {
		t.Errorf("merged buckets %v, sum of parts %v, union %v", got, sum, want)
	}
}

// Merging leaves its source untouched, and merging an empty histogram
// changes nothing.
func TestHistogramMerge(t *testing.T) {
	parts, all := mergeParts(3)
	merged := mergeAll(parts)
	for i, p := range parts {
		if p.Count() == 0 {
			t.Errorf("part %d emptied by merge", i)
		}
	}
	before := observed(all)
	before.Merge(new(Latency))
	if !reflect.DeepEqual(before, merged) {
		t.Error("merging an empty histogram changed the counters")
	}
	empty := new(Latency)
	empty.Merge(new(Latency))
	if !reflect.DeepEqual(empty, new(Latency)) {
		t.Error("merging two empty histograms is not empty")
	}
}

// The counts at each Prometheus bound are exact for values at the bound
// and one float64 step either side of it, and cumulative.
func TestLatencyBucketsExactAtBounds(t *testing.T) {
	var vs []float64
	for _, b := range LatencyBounds {
		vs = append(vs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	vs = append(vs, -1, 0, 7)
	l := observed(vs)
	counts := l.Buckets()
	if len(counts) != len(LatencyBounds)+1 {
		t.Fatalf("got %d buckets, want %d", len(counts), len(LatencyBounds)+1)
	}
	for i, b := range LatencyBounds {
		var want uint64
		for _, v := range vs {
			if v <= b {
				want++
			}
		}
		if counts[i] != want {
			t.Errorf("le=%v: got %d, want %d", b, counts[i], want)
		}
	}
	if counts[len(LatencyBounds)] != l.Count() || l.Count() != uint64(len(vs)) {
		t.Errorf("+Inf bucket %d, count %d, want %d", counts[len(LatencyBounds)], l.Count(), len(vs))
	}
}

func concurrentValues(w, perW int) []float64 {
	vs := make([]float64, perW)
	for i := range vs {
		vs[i] = float64(w*perW+i) * 1e-7
	}
	return vs
}

// observeConcurrently has GOMAXPROCS goroutines observe into l at once
// and returns every value they observed.
func observeConcurrently(l *Latency, perW int) []float64 {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range concurrentValues(w, perW) {
				l.Observe(v)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for w := range workers {
		all = append(all, concurrentValues(w, perW)...)
	}
	return all
}

// Latency needs no lock: concurrent observers (run under -race) leave the
// counters a sequential run leaves, and its JSON summary round-trips.
func TestSyncHistogramConcurrent(t *testing.T) {
	var live Latency
	all := observeConcurrently(&live, 3000)
	if !reflect.DeepEqual(&live, observed(all)) {
		t.Fatal("concurrent observation differs from the sequential result")
	}
	blob, err := json.Marshal(&live)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != len(all) || back.Min != 0 || back.Max != live.Max() {
		t.Fatalf("round-tripped summary %+v, want count %d, min 0, max %v", back, len(all), live.Max())
	}
}

// A snapshot taken while observers run is self-consistent: its +Inf
// bucket is its count, and its median lies inside its min and max.
func TestSyncHistogramConcurrentObserveSnapshot(t *testing.T) {
	var live Latency
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := new(Latency)
				sn.Merge(&live)
				counts := sn.Buckets()
				if n := sn.Count(); counts[len(counts)-1] != n {
					t.Errorf("snapshot +Inf bucket %d != count %d", counts[len(counts)-1], n)
					return
				}
				if q := sn.Quantile(0.5); sn.Count() > 0 && (q < sn.Min() || q > sn.Max()) {
					t.Errorf("snapshot median %v outside [%v, %v]", q, sn.Min(), sn.Max())
					return
				}
			}
		}()
	}
	all := observeConcurrently(&live, 3000)
	close(stop)
	readers.Wait()
	if got := live.Count(); got != uint64(len(all)) {
		t.Fatalf("final count %d, want %d", got, len(all))
	}
	// Observing into a snapshot does not leak back into the live histogram.
	sn := new(Latency)
	sn.Merge(&live)
	sn.Observe(math.Pi)
	if got := live.Count(); got != uint64(len(all)) {
		t.Fatalf("snapshot observation leaked: count %d, want %d", got, len(all))
	}
}

// Every quantile is within 1% of the nearest-rank value of the same
// observations, at whole-nanosecond values included.
func TestLatencyQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(n int, f func() float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = f()
		}
		return vs
	}
	cases := map[string][]float64{
		"lognormal": gen(20000, func() float64 { return math.Exp(rng.NormFloat64()*1.5) * 1e-4 }),
		"uniform":   gen(20000, func() float64 { return rng.Float64() * 2 }),
		"constant":  gen(100, func() float64 { return 0.00042 }),
		"two-point": gen(1000, func() float64 { return []float64{3e-5, 0.8}[rng.Intn(2)] }),
		"sub-64ns":  gen(1000, func() float64 { return float64(rng.Intn(64)) / 1e9 }),
	}
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}
	for name, vs := range cases {
		l := observed(vs)
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		for _, q := range qs {
			got, want := l.Quantile(q), stats.NearestRank(sorted, q)
			if math.Abs(got-want) > 0.01*want {
				t.Errorf("%s q%v: got %v, nearest rank %v", name, q, got, want)
			}
		}
		// Min and max are exact in whole nanoseconds.
		lo, hi := math.Round(sorted[0]*1e9)/1e9, math.Round(sorted[len(sorted)-1]*1e9)/1e9
		if l.Min() != lo || l.Max() != hi {
			t.Errorf("%s: min/max %v/%v, want %v/%v", name, l.Min(), l.Max(), lo, hi)
		}
	}
}

// Values past the layout's top (2^37 ns) share the last bucket: a rank
// there reports Max, while count, sum, min, max and the ranks below stay
// as exact as anywhere else.
func TestLatencyPastTheTopBucket(t *testing.T) {
	vs := []float64{0.001, 0.002, 0.003, 150, 400, 1000}
	l := observed(vs)
	if got := l.Quantile(0.5); math.Abs(got-0.003) > 0.01*0.003 {
		t.Errorf("median %v, want 0.003 within 1%%", got)
	}
	for _, q := range []float64{0.6, 0.9, 1} {
		if got := l.Quantile(q); got != 1000 {
			t.Errorf("q%v = %v, want Max 1000", q, got)
		}
	}
	if l.Count() != 6 || l.Sum() != 1550.006 || l.Min() != 0.001 || l.Max() != 1000 {
		t.Errorf("count %d sum %v min %v max %v", l.Count(), l.Sum(), l.Min(), l.Max())
	}
}

func TestLatencyEmptyNaNAndJSON(t *testing.T) {
	var l Latency
	if l.Count() != 0 || l.Sum() != 0 || l.Min() != 0 || l.Max() != 0 || l.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
	l.Observe(math.NaN())
	l.Observe(-3) // a negative duration counts as 0
	l.Observe(0.002)
	l.Observe(0.004)
	if l.Count() != 3 || l.Min() != 0 || l.Max() != 0.004 {
		t.Fatalf("count %d min %v max %v", l.Count(), l.Min(), l.Max())
	}
	blob, err := json.Marshal(&l)
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSummary
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if s.Count != 3 || s.Sum != 0.006 || s.Mean != 0.002 || math.Abs(s.P50-0.002) > 0.01*0.002 || s.P99 != 0.004 {
		t.Fatalf("summary %+v", s)
	}
}

// FuzzLatencyBucket: a value's bucket holds it, and the bucket index
// never decreases as the value grows.
func FuzzLatencyBucket(f *testing.F) {
	for _, ns := range []uint64{0, 63, 64, 127, 128, 129, 1000, 1 << 36, 1<<37 - 1, 1 << 37, math.MaxUint64} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns uint64) {
		i := latencyBucket(ns)
		if i < 0 || i >= latencyBuckets || latencyEdge(i) > ns ||
			(i < latencyBuckets-1 && ns >= latencyEdge(i+1)) {
			t.Fatalf("%d ns in bucket %d, edges [%d, %d)", ns, i, latencyEdge(i), latencyEdge(i+1))
		}
		if ns < math.MaxUint64 && latencyBucket(ns+1) < i {
			t.Fatalf("bucket of %d ns is %d, below %d ns's %d", ns+1, latencyBucket(ns+1), ns, i)
		}
	})
}
