package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkAssignment verifies a planned partitioner against the contract the
// engine (and the fuzz target) rely on: every key assigned to exactly one
// reducer in [0, reducers); Assign deterministic across calls; Splits a
// duplicate-free in-range set whose first element is Assign's answer; and
// planned Loads conserving the total key frequency. It returns the first
// violation found, or nil.
func checkAssignment(p Partitioner, keyFreqs map[string]int64, reducers int) error {
	var total, planned int64
	for _, f := range keyFreqs {
		total += f
	}
	for _, l := range p.Loads() {
		if l < 0 {
			return fmt.Errorf("partition %s: negative planned load %d", p.Name(), l)
		}
		planned += l
	}
	if len(p.Loads()) != reducers {
		return fmt.Errorf("partition %s: %d planned loads for %d reducers", p.Name(), len(p.Loads()), reducers)
	}
	if planned != total {
		return fmt.Errorf("partition %s: planned loads sum to %d, key frequencies to %d", p.Name(), planned, total)
	}
	for _, k := range sortedKeys(keyFreqs) {
		splits := p.Splits(k)
		if len(splits) == 0 {
			return fmt.Errorf("partition %s: key %q has no split set", p.Name(), k)
		}
		if again := p.Splits(k); !slices.Equal(again, splits) {
			return fmt.Errorf("partition %s: key %q assignment flapped %v → %v", p.Name(), k, splits, again)
		}
		seen := make(map[int]bool, len(splits))
		for _, s := range splits {
			if s < 0 || s >= reducers {
				return fmt.Errorf("partition %s: key %q split reducer %d of %d", p.Name(), k, s, reducers)
			}
			if seen[s] {
				return fmt.Errorf("partition %s: key %q split set repeats reducer %d", p.Name(), k, s)
			}
			seen[s] = true
		}
	}
	return nil
}

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config enabled")
	}
	if (&Config{}).Enabled() || (&Config{Mode: ModeOff}).Enabled() {
		t.Error("off config enabled")
	}
	if !(&Config{Mode: ModeHash}).Enabled() {
		t.Error("hash config not enabled")
	}
	if New(nilCfg) != nil || New(&Config{Mode: ModeOff}) != nil {
		t.Error("New(off) != nil")
	}
	for mode, want := range map[Mode]string{ModeHash: "hash", ModeSkew: "skew", ModeRange: "range"} {
		if got := New(&Config{Mode: mode}).Name(); got != want {
			t.Errorf("New(%s).Name() = %q", mode, got)
		}
	}
}

// Each strategy must satisfy the assignment contract on a spread of
// frequency shapes and reducer counts.
func TestContractAcrossStrategies(t *testing.T) {
	shapes := map[string]map[string]int64{
		"empty":   {},
		"single":  {"k": 100},
		"uniform": {"a": 10, "b": 10, "c": 10, "d": 10, "e": 10, "f": 10, "g": 10, "h": 10},
		"zipfian": {"the": 1000, "of": 500, "and": 333, "to": 250, "a": 200, "in": 166, "x": 1, "y": 1},
		"zeros":   {"a": 0, "b": 0, "c": 5},
	}
	for name, freqs := range shapes {
		for _, reducers := range []int{1, 2, 3, 4, 7, 16} {
			for _, p := range []Partitioner{&Hash{}, &SkewAware{}, &Range{Seed: 7}} {
				t.Run(fmt.Sprintf("%s/%s/r%d", p.Name(), name, reducers), func(t *testing.T) {
					if err := p.Plan(freqs, reducers); err != nil {
						t.Fatalf("Plan: %v", err)
					}
					if err := checkAssignment(p, freqs, reducers); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestPlanRejectsZeroReducers(t *testing.T) {
	for _, p := range []Partitioner{&Hash{}, &SkewAware{}, &Range{}} {
		if err := p.Plan(map[string]int64{"k": 1}, 0); err == nil {
			t.Errorf("%s accepted 0 reducers", p.Name())
		}
	}
}

// Hash assignment must be pure FNV-1a mod R — stable across plans and
// independent of frequencies, since golden-schedule compatibility and
// skew-mode's unknown-key routing both lean on it.
func TestHashAssignStable(t *testing.T) {
	h1, h2 := &Hash{}, &Hash{}
	if err := h1.Plan(map[string]int64{"a": 1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := h2.Plan(map[string]int64{"z": 99, "q": 3}, 5); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "z", "movie-17", "", "the"} {
		if h1.Assign(k) != h2.Assign(k) || h1.Assign(k) != hashAssign(k, 5) {
			t.Errorf("hash assignment of %q depends on plan state", k)
		}
	}
}

// One hot key must be split in skew mode, and the split must land the
// plan's max load at (close to) the balanced target rather than the whole
// key.
func TestSkewSplitsHeavyKey(t *testing.T) {
	freqs := map[string]int64{"hot": 900, "a": 25, "b": 25, "c": 25, "d": 25}
	s := &SkewAware{}
	if err := s.Plan(freqs, 4); err != nil {
		t.Fatal(err)
	}
	splits := s.Splits("hot")
	if len(splits) < 2 {
		t.Fatalf("hot key not split: %v", splits)
	}
	hash := &Hash{}
	if err := hash.Plan(freqs, 4); err != nil {
		t.Fatal(err)
	}
	if MaxLoad(s) >= MaxLoad(hash) {
		t.Errorf("split plan max load %d not better than hash %d", MaxLoad(s), MaxLoad(hash))
	}
	// 1000 bytes over 4 reducers: target 250; splitting should keep every
	// reducer within ~2× target even in adversarial layouts.
	if MaxLoad(s) > 500 {
		t.Errorf("max load %d far above balanced target 250", MaxLoad(s))
	}
	if err := checkAssignment(s, freqs, 4); err != nil {
		t.Fatal(err)
	}
}

func TestSkewMaxSplitCap(t *testing.T) {
	freqs := map[string]int64{"hot": 1000}
	s := &SkewAware{MaxSplit: 2}
	if err := s.Plan(freqs, 8); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Splits("hot")); got > 2 {
		t.Errorf("split %d ways despite MaxSplit=2", got)
	}
}

// Skew plans must be deterministic: same inputs, same assignment.
func TestSkewDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	freqs := make(map[string]int64)
	for i := 0; i < 200; i++ {
		freqs[fmt.Sprintf("key-%03d", i)] = rng.Int63n(1000)
	}
	a, b := &SkewAware{}, &SkewAware{}
	if err := a.Plan(freqs, 9); err != nil {
		t.Fatal(err)
	}
	if err := b.Plan(freqs, 9); err != nil {
		t.Fatal(err)
	}
	for k := range freqs {
		if fmt.Sprint(a.Splits(k)) != fmt.Sprint(b.Splits(k)) {
			t.Fatalf("key %q split %v vs %v across identical plans", k, a.Splits(k), b.Splits(k))
		}
	}
}

// Range mode must put contiguous key ranges on each reducer: assignment
// must be monotone in key order. DistributedSort's global ordering
// depends on this.
func TestRangeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	freqs := make(map[string]int64)
	for i := 0; i < 500; i++ {
		freqs[fmt.Sprintf("%04d", rng.Intn(5000))] = rng.Int63n(50) + 1
	}
	r := &Range{SampleSize: 32, Seed: 11}
	if err := r.Plan(freqs, 8); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(freqs)
	prev := 0
	for _, k := range keys {
		cur := r.Assign(k)
		if cur < prev {
			t.Fatalf("assignment not monotone: key %q → %d after %d", k, cur, prev)
		}
		prev = cur
	}
	if err := checkAssignment(r, freqs, 8); err != nil {
		t.Fatal(err)
	}
}

// With at least R distinct keys, every reducer must own at least one key
// (the quantile-cut fallback guarantees it even if the sample clusters).
func TestRangeNonEmpty(t *testing.T) {
	freqs := make(map[string]int64)
	for i := 0; i < 40; i++ {
		freqs[fmt.Sprintf("k%02d", i)] = 1
	}
	// A tiny sample forces reliance on the fallback path for large R.
	r := &Range{SampleSize: 4, Seed: 1}
	for _, reducers := range []int{2, 8, 16, 40} {
		if err := r.Plan(freqs, reducers); err != nil {
			t.Fatal(err)
		}
		counts := make([]int, reducers)
		for k := range freqs {
			counts[r.Assign(k)]++
		}
		for i, c := range counts {
			if c == 0 {
				t.Errorf("reducers=%d: reducer %d owns no keys", reducers, i)
			}
		}
	}
}

// Same seed → same cuts; different seed may differ but must stay valid.
func TestRangeSeedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	freqs := make(map[string]int64)
	for i := 0; i < 1000; i++ {
		freqs[fmt.Sprintf("w%05d", rng.Intn(100000))] = rng.Int63n(100) + 1
	}
	a, b := &Range{SampleSize: 64, Seed: 5}, &Range{SampleSize: 64, Seed: 5}
	if err := a.Plan(freqs, 6); err != nil {
		t.Fatal(err)
	}
	if err := b.Plan(freqs, 6); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.cuts) != fmt.Sprint(b.cuts) {
		t.Fatalf("same seed, different cuts:\n%v\n%v", a.cuts, b.cuts)
	}
	if !sort.StringsAreSorted(a.cuts) {
		t.Fatalf("cuts not sorted: %v", a.cuts)
	}
}
