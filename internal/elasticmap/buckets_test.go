package elasticmap

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFibonacciBounds(t *testing.T) {
	got := FibonacciBounds(34 * KiB)
	want := []int64{0, 1 * KiB, 2 * KiB, 3 * KiB, 5 * KiB, 8 * KiB, 13 * KiB, 21 * KiB, 34 * KiB}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bounds[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFibonacciBoundsCover64MB(t *testing.T) {
	bounds := FibonacciBounds(64 << 20)
	// Paper: "tens of buckets could be sufficient".
	if len(bounds) < 10 || len(bounds) > 40 {
		t.Errorf("bucket count = %d, want tens", len(bounds))
	}
	if bounds[len(bounds)-1] < 64<<20 {
		t.Errorf("last bound %d does not cover 64 MiB", bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d", i)
		}
	}
}

func TestScaledFibonacciBounds(t *testing.T) {
	// At 64 MiB the scaled unit is exactly the paper's 1 kb.
	a := ScaledFibonacciBounds(64 << 20)
	b := FibonacciBounds(64 << 20)
	if len(a) != len(b) {
		t.Fatalf("scaled(64MiB) diverges from paper bounds: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scaled(64MiB)[%d] = %d, want %d", i, a[i], b[i])
		}
	}
	// Smaller blocks keep the same relative resolution (same bucket count).
	s := ScaledFibonacciBounds(256 << 10)
	if len(s) != len(b) {
		t.Errorf("scaled(256KiB) has %d buckets, want %d", len(s), len(b))
	}
}

func TestUniformAndPow2Bounds(t *testing.T) {
	u := UniformBounds(1000, 4)
	if len(u) != 4 || u[0] != 0 || u[1] != 250 || u[3] != 750 {
		t.Errorf("UniformBounds = %v", u)
	}
	if got := UniformBounds(100, 0); len(got) != 1 {
		t.Errorf("degenerate uniform = %v", got)
	}
	p := PowerOfTwoBounds(8 * KiB)
	want := []int64{0, KiB, 2 * KiB, 4 * KiB}
	if len(p) != len(want) {
		t.Fatalf("PowerOfTwoBounds = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Errorf("pow2[%d] = %d, want %d", i, p[i], want[i])
		}
	}
}

func TestSeparatorObserve(t *testing.T) {
	s := NewSeparator([]int64{0, 10, 100, 1000})
	s.Observe("a", 5)    // bucket 0
	s.Observe("b", 50)   // bucket 1
	s.Observe("b", 60)   // moves to bucket 2 (110)
	s.Observe("c", 2000) // bucket 3
	if s.NumSubs() != 3 {
		t.Fatalf("NumSubs = %d", s.NumSubs())
	}
	counts := s.counts
	if counts[0] != 1 || counts[1] != 0 || counts[2] != 1 || counts[3] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if s.sizes["b"] != 110 {
		t.Errorf("size[b] = %d", s.sizes["b"])
	}
}

func TestSeparatorBoundsNormalized(t *testing.T) {
	// Unsorted bounds without 0 are sorted and prefixed with 0.
	s := NewSeparator([]int64{100, 10})
	b := s.bounds
	if b[0] != 0 || b[1] != 10 || b[2] != 100 {
		t.Errorf("normalized bounds = %v", b)
	}
	// Nil bounds default to Fibonacci.
	if d := NewSeparator(nil); d.bounds[1] != KiB {
		t.Errorf("default bounds = %v", d.bounds[:3])
	}
}

func TestThresholdForCount(t *testing.T) {
	s := NewSeparator([]int64{0, 10, 100})
	// 5 subs in bucket0 (<10), 3 in bucket1, 2 in bucket2.
	for i := 0; i < 5; i++ {
		s.Observe(fmt.Sprintf("t%d", i), 5)
	}
	for i := 0; i < 3; i++ {
		s.Observe(fmt.Sprintf("m%d", i), 50)
	}
	for i := 0; i < 2; i++ {
		s.Observe(fmt.Sprintf("h%d", i), 500)
	}
	cases := []struct {
		target int
		want   int64
		ok     bool
	}{
		{0, math.MaxInt64, true},  // nothing hashed
		{1, math.MaxInt64, false}, // top bucket alone (2) exceeds 1
		{2, 100, true},            // exactly the top bucket
		{4, 100, true},            // top bucket + partial middle doesn't fit wholly
		{5, 10, true},             // top + middle
		{9, 10, true},             // bucket 0 (5 subs) doesn't fit in the remaining 4
		{10, 0, true},             // everything
		{1000, 0, true},           // more than everything
	}
	for _, c := range cases {
		got, ok := s.ThresholdForCount(c.target)
		if got != c.want || ok != c.ok {
			t.Errorf("ThresholdForCount(%d) = (%d, %v), want (%d, %v)", c.target, got, ok, c.want, c.ok)
		}
	}
}

func TestThresholdForFraction(t *testing.T) {
	s := NewSeparator([]int64{0, 10})
	for i := 0; i < 8; i++ {
		s.Observe(fmt.Sprintf("lo%d", i), 1)
	}
	s.Observe("hi1", 20)
	s.Observe("hi2", 20)
	if th, ok := s.ThresholdForFraction(0.2); th != 10 || !ok {
		t.Errorf("fraction 0.2 → (%d, %v)", th, ok)
	}
	if th, _ := s.ThresholdForFraction(1.0); th != 0 {
		t.Errorf("fraction 1.0 → %d", th)
	}
	if th, _ := s.ThresholdForFraction(-1); th <= 10 {
		t.Errorf("fraction -1 should hash nothing, threshold %d", th)
	}
}

func TestSplit(t *testing.T) {
	s := NewSeparator([]int64{0, 10})
	s.Observe("small", 3)
	s.Observe("big", 30)
	dom, non := s.Split(10)
	if len(dom) != 1 || dom["big"] != 30 {
		t.Errorf("dominant = %v", dom)
	}
	if len(non) != 1 || non["small"] != 3 {
		t.Errorf("non-dominant = %v", non)
	}
}

// Property: the separator's threshold decision matches what a full sort
// would produce — at most `target` sub-datasets at or above the threshold,
// and relaxing to the next lower bucket bound would exceed the target
// (when the answer is exact).
func TestThresholdMatchesSortReferenceQuick(t *testing.T) {
	bounds := []int64{0, 10, 20, 30, 50, 80, 130}
	f := func(sizesRaw []uint16, targetRaw uint8) bool {
		s := NewSeparator(bounds)
		sizes := make([]int64, 0, len(sizesRaw))
		for i, raw := range sizesRaw {
			sz := int64(raw)%200 + 1
			s.Observe(fmt.Sprintf("s%d", i), sz)
			sizes = append(sizes, sz)
		}
		target := int(targetRaw) % (len(sizes) + 2)
		th, _ := s.ThresholdForCount(target)
		// Count subs >= threshold; must not exceed target (unless even the
		// top bucket overflows, which ThresholdForCount signals by ok).
		above := 0
		for _, sz := range sizes {
			if sz >= th {
				above++
			}
		}
		if _, ok := s.ThresholdForCount(target); ok && above > target {
			return false
		}
		// Reference: sorting descending, the top `above` sizes are all >= th.
		sorted := append([]int64(nil), sizes...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		for i := 0; i < above; i++ {
			if sorted[i] < th {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: bucket counts always sum to the number of distinct subs.
func TestBucketCountsSumQuick(t *testing.T) {
	f := func(obs []uint16) bool {
		s := NewSeparator([]int64{0, 16, 64, 256})
		for _, o := range obs {
			s.Observe(fmt.Sprintf("k%d", o%17), int64(o%100)+1)
		}
		sum := 0
		for _, c := range s.counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == s.NumSubs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
