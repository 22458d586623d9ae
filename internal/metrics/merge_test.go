package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// Merged quantiles must equal quantiles of the concatenated stream: the
// histogram retains observations exactly, so this is exact equality, not
// bucket-resolution equality.
func TestHistogramMergeQuantilesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	parts := make([]*Histogram, 5)
	var all []float64
	for i := range parts {
		parts[i] = NewHistogram()
		n := 100 + rng.Intn(400)
		for j := 0; j < n; j++ {
			v := rng.ExpFloat64() * float64(i+1)
			parts[i].Observe(v)
			all = append(all, v)
		}
	}
	merged := NewHistogram()
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != len(all) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(all))
	}
	ref := NewHistogram()
	for _, v := range all {
		ref.Observe(v)
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		got, want := merged.Quantile(q), ref.Quantile(q)
		if got != want {
			t.Errorf("q%.2f: merged %v, concatenated %v", q, got, want)
		}
	}
	if got, want := merged.Sum(), ref.Sum(); math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("merged sum %v, concatenated %v", got, want)
	}
	// Merging must leave the sources untouched.
	for i, p := range parts {
		if p.Count() == 0 {
			t.Errorf("part %d emptied by merge", i)
		}
	}
}

// Bucket counts must be cumulative, monotone, and agree with a direct
// count of the value stream; the +Inf bucket is the total count.
func TestHistogramBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var vals []float64
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 2
		h.Observe(v)
		vals = append(vals, v)
	}
	bounds := []float64{0.1, 0.5, 1, 1.5}
	counts := h.Buckets(bounds)
	if len(counts) != len(bounds)+1 {
		t.Fatalf("got %d buckets, want %d", len(counts), len(bounds)+1)
	}
	sort.Float64s(vals)
	for i, b := range bounds {
		want := uint64(sort.SearchFloat64s(vals, math.Nextafter(b, math.Inf(1))))
		if counts[i] != want {
			t.Errorf("bucket le=%v: got %d, want %d", b, counts[i], want)
		}
		if i > 0 && counts[i] < counts[i-1] {
			t.Errorf("bucket counts not cumulative at %d: %v", i, counts)
		}
	}
	if counts[len(bounds)] != uint64(h.Count()) {
		t.Errorf("+Inf bucket %d, want count %d", counts[len(bounds)], h.Count())
	}
}

// Merging bucketed views must equal bucketing the merged stream — the
// property the cluster metric rollup relies on.
func TestHistogramBucketsMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bounds := []float64{0.001, 0.01, 0.1, 1}
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 500; i++ {
		a.Observe(rng.ExpFloat64() / 50)
		b.Observe(rng.ExpFloat64() / 5)
	}
	ca, cb := a.Buckets(bounds), b.Buckets(bounds)
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	for i, c := range merged.Buckets(bounds) {
		if c != ca[i]+cb[i] {
			t.Errorf("bucket %d: merged %d, sum of parts %d", i, c, ca[i]+cb[i])
		}
	}
}

// SyncHistogram must tolerate concurrent observers and snapshotters (run
// under -race); every snapshot is internally consistent and the final
// state holds every observation.
func TestSyncHistogramConcurrentObserveSnapshot(t *testing.T) {
	const (
		writers = 8
		perW    = 2000
	)
	var sh SyncHistogram
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers race the writers.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := sh.Snapshot()
				if got := sn.Buckets(nil); got[0] != uint64(sn.Count()) {
					t.Errorf("snapshot +Inf bucket %d != count %d", got[0], sn.Count())
					return
				}
				sum := sn.Summary()
				if sum.Count > 0 && sum.Max < sum.Min {
					t.Errorf("summary max %v < min %v", sum.Max, sum.Min)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				sh.Observe(float64(w*perW + i))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := sh.Snapshot().Count(); got != writers*perW {
		t.Fatalf("final count %d, want %d", got, writers*perW)
	}
	// Mutating a snapshot must not leak back into the live histogram.
	sn := sh.Snapshot()
	sn.Observe(math.Pi)
	if got := sh.Snapshot().Count(); got != writers*perW {
		t.Fatalf("snapshot mutation leaked: count %d, want %d", got, writers*perW)
	}
}
