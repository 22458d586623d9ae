// Package elasticmap implements DataNet's meta-data layer (paper §III):
//
//   - a single-scan, linear-time *dominant sub-dataset separator* based on
//     bucket/count-sorting with Fibonacci-spaced size intervals, which
//     classifies sub-datasets by their per-block footprint without sorting;
//   - *ElasticMap*, the per-block structure that stores dominant
//     sub-dataset sizes exactly in a hash map and non-dominant ones
//     approximately in a Bloom filter, with the Eq.-5 memory model;
//   - the *ElasticMap array* over all blocks of a file, the Eq.-6 total
//     size estimator, and the accuracy metric χ of §V-B.
package elasticmap

import (
	"math"
	"slices"
	"sort"
)

// KiB is one kilobyte; the paper's bucket bounds are expressed in KB.
const KiB = 1024

// FibonacciBounds returns the ascending bucket *lower* bounds the paper
// proposes: (0,1kb),[1kb,2kb),[2kb,3kb),[3kb,5kb),[5kb,8kb)… growing until
// max is covered. Larger sizes get sparser intervals because content
// clustering puts few sub-datasets there.
func FibonacciBounds(max int64) []int64 {
	return FibonacciBoundsUnit(max, KiB)
}

// FibonacciBoundsUnit generalizes FibonacciBounds to an arbitrary base
// interval. The paper's 1 kb unit suits its 64 MB blocks; simulations with
// smaller blocks scale the unit proportionally (unit ≈ max/65536 keeps the
// same relative resolution) so the dominant/non-dominant cut stays as
// sharp as at paper scale.
func FibonacciBoundsUnit(max, unit int64) []int64 {
	if unit <= 0 {
		unit = KiB
	}
	bounds := []int64{0}
	a, b := int64(1), int64(2)
	for a*unit < max {
		bounds = append(bounds, a*unit)
		a, b = b, a+b
	}
	bounds = append(bounds, a*unit)
	return bounds
}

// ScaledFibonacciBounds picks the Fibonacci unit that gives a block of the
// given size the same relative bucket resolution the paper's 1 kb unit
// gives a 64 MB block.
func ScaledFibonacciBounds(blockSize int64) []int64 {
	unit := blockSize / 65536
	if unit < 1 {
		unit = 1
	}
	return FibonacciBoundsUnit(blockSize, unit)
}

// UniformBounds returns n equal-width bucket lower bounds over [0, max);
// used by the bucket-shape ablation.
func UniformBounds(max int64, n int) []int64 {
	if n <= 0 {
		n = 1
	}
	bounds := make([]int64, n)
	for i := range bounds {
		bounds[i] = max * int64(i) / int64(n)
	}
	return bounds
}

// PowerOfTwoBounds returns lower bounds 0,1k,2k,4k,8k,… ; the second
// bucket-shape ablation.
func PowerOfTwoBounds(max int64) []int64 {
	bounds := []int64{0}
	for b := int64(KiB); b < max; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Separator performs the paper's single-scan dominant/non-dominant
// classification. Observe is O(1) amortized per record (hash update plus a
// forward bucket adjustment), so scanning a block of m sub-datasets costs
// O(records), matching the paper's O(m·n) bound for n blocks.
type Separator struct {
	bounds   []int64 // ascending bucket lower bounds; bounds[0] must be 0
	sizes    map[string]int64
	bucketOf map[string]int
	counts   []int
}

// NewSeparator creates a separator over the given ascending lower bounds.
// Passing nil uses FibonacciBounds(64 MiB).
func NewSeparator(bounds []int64) *Separator {
	cp := normalBounds(bounds)
	return &Separator{
		bounds:   cp,
		sizes:    make(map[string]int64),
		bucketOf: make(map[string]int),
		counts:   make([]int, len(cp)),
	}
}

// normalBounds returns a sorted copy of bounds starting at 0 (nil:
// FibonacciBounds(64 MiB)).
func normalBounds(bounds []int64) []int64 {
	if len(bounds) == 0 {
		bounds = FibonacciBounds(64 << 20)
	}
	cp := slices.Clone(bounds)
	slices.Sort(cp)
	if cp[0] != 0 {
		cp = append([]int64{0}, cp...)
	}
	return cp
}

// rebucketed returns the separator over bounds (nil: FibonacciBounds(64
// MiB)): s itself when they are its own, else a view sharing s's sizes
// with the bucket counts recounted from them. The recount equals the
// counts a scan under bounds ends with, since Observe always moves a key
// to the bucket its current size falls in. s is not modified.
func (s *Separator) rebucketed(bounds []int64) *Separator {
	nb := bounds
	if len(nb) == 0 || nb[0] != 0 || !slices.IsSorted(nb) {
		nb = normalBounds(bounds)
	}
	if slices.Equal(nb, s.bounds) {
		return s
	}
	v := &Separator{bounds: nb, sizes: s.sizes, counts: make([]int, len(nb))}
	for _, sz := range s.sizes {
		v.counts[v.bucketIndex(sz)]++
	}
	return v
}

// bucketIndex returns the bucket holding size: the largest i with
// bounds[i] <= size.
func (s *Separator) bucketIndex(size int64) int {
	// sort.Search finds the first bound > size; the bucket is one left.
	i := sort.Search(len(s.bounds), func(i int) bool { return s.bounds[i] > size })
	return i - 1
}

// Observe accounts `bytes` more data for sub-dataset sub. Buckets only move
// forward because sizes are monotone within a scan.
func (s *Separator) Observe(sub string, bytes int64) {
	newSize := s.sizes[sub] + bytes
	s.sizes[sub] = newSize
	cur, seen := s.bucketOf[sub]
	nb := s.bucketIndex(newSize)
	if !seen {
		s.bucketOf[sub] = nb
		s.counts[nb]++
		return
	}
	if nb != cur {
		s.counts[cur]--
		s.counts[nb]++
		s.bucketOf[sub] = nb
	}
}

// NumSubs returns the number of distinct sub-datasets observed.
func (s *Separator) NumSubs() int { return len(s.sizes) }

// ThresholdForCount returns the smallest bucket lower bound such that the
// buckets at or above it contain at most target sub-datasets, walking the
// bucket statistics from the top (no sorting of sub-datasets, the paper's
// key efficiency claim). The boolean result is false when even the highest
// bucket exceeds target (callers may still hash that bucket or none).
//
// target >= NumSubs yields threshold 0 (hash everything); target <= 0
// yields an unreachable threshold (hash nothing). The top bucket is
// unbounded above, so "exclude it" must use an infinite threshold, not the
// last bound.
func (s *Separator) ThresholdForCount(target int) (int64, bool) {
	if target <= 0 {
		return math.MaxInt64, true
	}
	cum := 0
	for i := len(s.counts) - 1; i >= 0; i-- {
		if cum+s.counts[i] > target {
			if i == len(s.counts)-1 {
				// Even the top bucket alone is too big.
				return math.MaxInt64, false
			}
			return s.bounds[i+1], true
		}
		cum += s.counts[i]
	}
	return 0, true
}

// ThresholdForFraction is ThresholdForCount with target = ceil(alpha * m).
func (s *Separator) ThresholdForFraction(alpha float64) (int64, bool) {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	target := int(alpha*float64(s.NumSubs()) + 0.999999)
	return s.ThresholdForCount(target)
}

// Split partitions the observed sub-datasets by threshold: sizes >=
// threshold are dominant (destined for the hash map), the rest are
// non-dominant (destined for the Bloom filter).
func (s *Separator) Split(threshold int64) (dominant map[string]int64, nonDominant map[string]int64) {
	dominant = make(map[string]int64)
	nonDominant = make(map[string]int64)
	for sub, sz := range s.sizes {
		if sz >= threshold {
			dominant[sub] = sz
		} else {
			nonDominant[sub] = sz
		}
	}
	return dominant, nonDominant
}
