package partition

import (
	"fmt"
	"sort"
)

// SkewAware is the key-distribution-aware partitioner (arXiv 1401.0355
// style): keys are bin-packed onto reducers heaviest-first, so one hot
// key no longer drags a hash-chosen reducer while its peers idle. A key
// whose frequency exceeds the per-reducer target is *split* across
// several reducers — each receives a chunk of the key's values — which is
// sound only because apps.App.Reduce is contractually order- and
// split-insensitive (the merge reducer re-reduces the concatenated
// chunks; see the App doc).
//
// The plan carries a fallback guard: after packing, the greedy plan's max
// reducer load is compared against the hash baseline's, and the worse
// plan is discarded. Greedy-with-splitting essentially always wins, but
// the guard makes "skew-aware never exceeds hash's max reducer load" an
// unconditional invariant rather than a probabilistic one — the property
// test in property_test.go leans on it.
type SkewAware struct {
	// MaxSplit caps how many reducers one key may be split across
	// (default: the reducer count).
	MaxSplit int

	reducers int
	splits   map[string][]int
	loads    []int64
	// fellBack records whether the guard discarded the greedy plan for
	// the hash baseline.
	fellBack bool
}

// Name implements Partitioner.
func (*SkewAware) Name() string { return string(ModeSkew) }

// Plan implements Partitioner: greedy least-loaded bin-packing of the
// observed keys, heaviest first, splitting keys that exceed the balanced
// per-reducer target.
func (s *SkewAware) Plan(keyFreqs map[string]int64, reducers int) error {
	if reducers < 1 {
		return fmt.Errorf("%w: %d reducers", ErrPlan, reducers)
	}
	s.reducers = reducers
	s.splits = make(map[string][]int, len(keyFreqs))
	s.loads = make([]int64, reducers)
	s.fellBack = false

	maxSplit := s.MaxSplit
	if maxSplit <= 0 || maxSplit > reducers {
		maxSplit = reducers
	}

	var total int64
	keys := sortedKeys(keyFreqs)
	for _, k := range keys {
		total += keyFreqs[k]
	}
	// The balanced target ⌈total/R⌉: a key heavier than one reducer's
	// fair share cannot be placed whole without exceeding it.
	target := (total + int64(reducers) - 1) / int64(reducers)

	// Heaviest first (ties by key) — the classic LPT order that keeps the
	// greedy bound tight.
	sort.SliceStable(keys, func(i, j int) bool {
		if keyFreqs[keys[i]] != keyFreqs[keys[j]] {
			return keyFreqs[keys[i]] > keyFreqs[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		f := keyFreqs[k]
		ways := 1
		if reducers > 1 && target > 0 && f > target {
			ways = int((f + target - 1) / target)
			if ways > maxSplit {
				ways = maxSplit
			}
		}
		set := make([]int, 0, ways)
		used := make(map[int]bool, ways)
		for c := 0; c < ways; c++ {
			// Balanced chunks: the first f%ways chunks carry one extra byte.
			chunk := f / int64(ways)
			if int64(c) < f%int64(ways) {
				chunk++
			}
			r := s.leastLoaded(used)
			set = append(set, r)
			used[r] = true
			s.loads[r] += chunk
		}
		s.splits[k] = set
	}

	// Fallback guard: never worse than hash on max reducer load.
	hash := &Hash{}
	if err := hash.Plan(keyFreqs, reducers); err != nil {
		return err
	}
	if MaxLoad(s) > MaxLoad(hash) {
		s.fellBack = true
		s.loads = hash.Loads()
		for _, k := range keys {
			s.splits[k] = []int{hashAssign(k, reducers)}
		}
	}
	return nil
}

// leastLoaded returns the least-loaded reducer not yet in used (ties →
// lowest index). Callers never pass a full used set larger than R−1.
func (s *SkewAware) leastLoaded(used map[int]bool) int {
	best := -1
	for r := 0; r < s.reducers; r++ {
		if used[r] {
			continue
		}
		if best < 0 || s.loads[r] < s.loads[best] {
			best = r
		}
	}
	return best
}

// Splits implements Partitioner.
func (s *SkewAware) Splits(key string) []int {
	if set, ok := s.splits[key]; ok {
		return set
	}
	return []int{hashAssign(key, s.reducers)}
}

// Loads implements Partitioner.
func (s *SkewAware) Loads() []int64 { return s.loads }
