package partition

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Range is the sampled range partitioner (the TeraSort / arXiv 1506.00449
// recipe): draw a weighted reservoir sample of the intermediate keys, cut
// the sorted sample at R−1 quantile points, and give each reducer one
// contiguous key range. Contiguity is the property a distributed sort
// needs — concatenating reducer outputs in reducer order yields a
// globally sorted result, so DistributedSort pairs with this mode.
//
// Sampling is deterministic: the configured seed drives an A-Res
// (Efraimidis–Spirakis) weighted reservoir over the keys in sorted order,
// so the same key frequencies always produce the same cut points. If the
// sampled cuts would leave a reducer with no keys even though there are
// at least R distinct keys, the planner falls back to exact quantile cuts
// over the full distinct-key list, which cannot produce an empty range.
type Range struct {
	// SampleSize bounds the reservoir (default 256 keys).
	SampleSize int
	// Seed drives the reservoir's RNG.
	Seed int64

	reducers int
	cuts     []string
	loads    []int64
}

// defaultSampleSize is the reservoir bound when the config leaves it zero.
const defaultSampleSize = 256

// Name implements Partitioner.
func (*Range) Name() string { return string(ModeRange) }

// Plan implements Partitioner: sample, cut, and pre-compute loads.
func (r *Range) Plan(keyFreqs map[string]int64, reducers int) error {
	if reducers < 1 {
		return fmt.Errorf("%w: %d reducers", ErrPlan, reducers)
	}
	r.reducers = reducers
	r.cuts = nil
	r.loads = make([]int64, reducers)

	keys := sortedKeys(keyFreqs)
	if reducers > 1 && len(keys) > 1 {
		sample := r.reservoir(keys, keyFreqs)
		r.cuts = cutPoints(sample, reducers)
		if len(keys) >= reducers && r.anyEmpty(keys) {
			// The sample missed part of the key space; exact quantile cuts
			// over the distinct keys guarantee every range is inhabited.
			r.cuts = cutPoints(keys, reducers)
		}
	}
	for _, k := range keys {
		r.loads[r.Assign(k)] += keyFreqs[k]
	}
	return nil
}

// reservoir draws a weighted sample of the keys: A-Res keeps the
// SampleSize keys with the largest u^(1/w) priorities, so heavy keys are
// proportionally more likely to become cut points. Zero-frequency keys
// still participate with a tiny weight — they occupy key space even if
// they carry no bytes.
func (r *Range) reservoir(keys []string, freqs map[string]int64) []string {
	size := r.SampleSize
	if size <= 0 {
		size = defaultSampleSize
	}
	if len(keys) <= size {
		out := make([]string, len(keys))
		copy(out, keys)
		return out
	}
	rng := rand.New(rand.NewSource(r.Seed))
	type scored struct {
		key      string
		priority float64
	}
	scoredKeys := make([]scored, len(keys))
	for i, k := range keys {
		w := float64(freqs[k])
		if w <= 0 {
			w = 0.5
		}
		scoredKeys[i] = scored{k, math.Pow(rng.Float64(), 1/w)}
	}
	sort.SliceStable(scoredKeys, func(i, j int) bool {
		if scoredKeys[i].priority != scoredKeys[j].priority {
			return scoredKeys[i].priority > scoredKeys[j].priority
		}
		return scoredKeys[i].key < scoredKeys[j].key
	})
	out := make([]string, size)
	for i := range out {
		out[i] = scoredKeys[i].key
	}
	sort.Strings(out)
	return out
}

// cutPoints slices a sorted, deduplicated key list into R quantile ranges
// and returns the R−1 boundary keys: reducer i owns [cut[i−1], cut[i]).
func cutPoints(sorted []string, reducers int) []string {
	distinct := sorted[:0:0]
	for i, k := range sorted {
		if i == 0 || k != sorted[i-1] {
			distinct = append(distinct, k)
		}
	}
	cuts := make([]string, 0, reducers-1)
	for i := 1; i < reducers; i++ {
		idx := i * len(distinct) / reducers
		if idx >= len(distinct) {
			idx = len(distinct) - 1
		}
		cut := distinct[idx]
		if len(cuts) == 0 || cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// anyEmpty reports whether the current cuts leave some reducer with no
// key from keys.
func (r *Range) anyEmpty(keys []string) bool {
	seen := make([]bool, r.reducers)
	for _, k := range keys {
		seen[r.Assign(k)] = true
	}
	for _, s := range seen {
		if !s {
			return true
		}
	}
	return false
}

// Assign implements Partitioner: binary-search the cut points. A key
// equal to cut i belongs to reducer i+1 (ranges are half-open on the
// right), and any key — planned or not — lands in a valid range.
func (r *Range) Assign(key string) int {
	return sort.Search(len(r.cuts), func(i int) bool { return r.cuts[i] > key })
}

// Splits implements Partitioner: range never splits a key.
func (r *Range) Splits(key string) []int { return []int{r.Assign(key)} }

// Loads implements Partitioner.
func (r *Range) Loads() []int64 { return r.loads }
