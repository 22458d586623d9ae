package partition

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"datanet/internal/shrink"
)

// The partitioner property, mirroring the sched differential suite: on
// any key-frequency vector, the skew-aware planner's max reducer load
// never exceeds the hash baseline's (the fallback guard makes this
// unconditional, not probabilistic), both plans conserve total bytes, and
// skew's split sets stay within the configured cap. Failures shrink the
// instance (drop keys, halve frequencies, drop reducers) before
// reporting, so the log shows a minimal counterexample.

// freqInstance is one random partitioning problem.
type freqInstance struct {
	reducers int
	freqs    map[string]int64
	maxSplit int
}

func (in *freqInstance) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "reducers=%d maxSplit=%d keys=%d\n", in.reducers, in.maxSplit, len(in.freqs))
	for _, k := range sortedKeys(in.freqs) {
		fmt.Fprintf(&sb, "  %q: %d\n", k, in.freqs[k])
	}
	return sb.String()
}

func (in *freqInstance) clone() *freqInstance {
	c := &freqInstance{reducers: in.reducers, maxSplit: in.maxSplit, freqs: make(map[string]int64, len(in.freqs))}
	for k, f := range in.freqs {
		c.freqs[k] = f
	}
	return c
}

// randomFreqInstance draws a skewed problem: zipf-flavored head keys,
// light tail, some zero-frequency keys, occasionally one giant key.
func randomFreqInstance(rng *rand.Rand) *freqInstance {
	in := &freqInstance{
		reducers: 1 + rng.Intn(16),
		maxSplit: rng.Intn(5), // 0 = default (reducer count)
		freqs:    make(map[string]int64),
	}
	nk := 1 + rng.Intn(60)
	for j := 0; j < nk; j++ {
		k := fmt.Sprintf("k%03d", rng.Intn(200))
		switch rng.Intn(5) {
		case 0:
			in.freqs[k] = 0
		case 1:
			in.freqs[k] = 5000 + rng.Int63n(50000) // hot head
		default:
			in.freqs[k] = rng.Int63n(300)
		}
	}
	return in
}

// partitionViolation returns "" when the instance satisfies the property.
func partitionViolation(in *freqInstance) string {
	skew := &SkewAware{MaxSplit: in.maxSplit}
	if err := skew.Plan(in.freqs, in.reducers); err != nil {
		return fmt.Sprintf("skew plan error: %v", err)
	}
	hash := &Hash{}
	if err := hash.Plan(in.freqs, in.reducers); err != nil {
		return fmt.Sprintf("hash plan error: %v", err)
	}
	if MaxLoad(skew) > MaxLoad(hash) {
		return fmt.Sprintf("skew max load %d exceeds hash max load %d", MaxLoad(skew), MaxLoad(hash))
	}
	for _, p := range []Partitioner{skew, hash} {
		if err := checkAssignment(p, in.freqs, in.reducers); err != nil {
			return err.Error()
		}
	}
	splitCap := in.maxSplit
	if splitCap <= 0 || splitCap > in.reducers {
		splitCap = in.reducers
	}
	for k := range in.freqs {
		if got := len(skew.Splits(k)); got > splitCap {
			return fmt.Sprintf("key %q split %d ways, cap %d", k, got, splitCap)
		}
	}
	return ""
}

// freqEdits lists an instance's one-step simplifications for the
// shrinker: drop one key, halve one frequency, drop a reducer.
func freqEdits(in *freqInstance) []*freqInstance {
	var out []*freqInstance
	for _, k := range sortedKeys(in.freqs) {
		c := in.clone()
		delete(c.freqs, k)
		out = append(out, c)
	}
	for _, k := range sortedKeys(in.freqs) {
		if in.freqs[k] >= 2 {
			c := in.clone()
			c.freqs[k] /= 2
			out = append(out, c)
		}
	}
	if in.reducers > 1 {
		c := in.clone()
		c.reducers--
		out = append(out, c)
	}
	return out
}

// TestSkewNeverExceedsHashMaxLoad sweeps seeded random frequency vectors
// and checks the dominance property, shrinking any counterexample.
func TestSkewNeverExceedsHashMaxLoad(t *testing.T) {
	const instances = 300
	rng := rand.New(rand.NewSource(14010355)) // arXiv 1401.0355
	for i := 0; i < instances; i++ {
		in := randomFreqInstance(rng)
		if msg := partitionViolation(in); msg != "" {
			min := shrink.Greedy(in, freqEdits, func(c *freqInstance) bool { return partitionViolation(c) != "" })
			t.Fatalf("instance %d: %s\nshrunken counterexample:\n%s(still fails with: %s)",
				i, msg, min, partitionViolation(min))
		}
	}
}

// TestPartitionPropertyTable pins corner cases the random sweep may not
// draw.
func TestPartitionPropertyTable(t *testing.T) {
	cases := []struct {
		name string
		in   freqInstance
	}{
		{"no keys", freqInstance{reducers: 4, freqs: map[string]int64{}}},
		{"one reducer", freqInstance{reducers: 1, freqs: map[string]int64{"a": 9, "b": 1}}},
		{"one giant key", freqInstance{reducers: 8, freqs: map[string]int64{"hot": 1 << 40}}},
		{"all zero freqs", freqInstance{reducers: 3, freqs: map[string]int64{"a": 0, "b": 0, "c": 0}}},
		{"giant plus tail capped", freqInstance{reducers: 6, maxSplit: 2,
			freqs: map[string]int64{"hot": 100000, "a": 1, "b": 2, "c": 3}}},
		{"more reducers than keys", freqInstance{reducers: 12, freqs: map[string]int64{"a": 5, "b": 7}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if msg := partitionViolation(&tc.in); msg != "" {
				t.Fatalf("%s\n%s", msg, &tc.in)
			}
		})
	}
}

// TestSkewNonEmptyWherePossible: when the greedy plan stands (no hash
// fallback) and there are at least R positive keys, every reducer gets
// work.
func TestSkewNonEmptyWherePossible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		reducers := 2 + rng.Intn(8)
		freqs := make(map[string]int64)
		for j := 0; j < reducers+rng.Intn(20); j++ {
			freqs[fmt.Sprintf("k%04d", j)] = 1 + rng.Int63n(500)
		}
		s := &SkewAware{}
		if err := s.Plan(freqs, reducers); err != nil {
			t.Fatal(err)
		}
		if s.fellBack {
			continue
		}
		for r, l := range s.Loads() {
			if l == 0 {
				t.Fatalf("reducers=%d keys=%d: reducer %d idle in greedy plan\nloads=%v",
					reducers, len(freqs), r, s.Loads())
			}
		}
	}
}

// TestShrinkerOutputIsMinimal exercises the shrinker through freqEdits on
// an artificially failing predicate (a fake violation: "some key has
// frequency > 10") to prove it reaches a one-key, one-reducer instance —
// so when a real property failure appears, the reported counterexample is
// trustworthy.
func TestShrinkerOutputIsMinimal(t *testing.T) {
	in := &freqInstance{reducers: 7, freqs: map[string]int64{
		"a": 3, "b": 400, "c": 12, "d": 0, "e": 77,
	}}
	min := shrink.Greedy(in, freqEdits, func(c *freqInstance) bool {
		for _, f := range c.freqs {
			if f > 10 {
				return true
			}
		}
		return false
	})
	if len(min.freqs) != 1 || min.reducers != 1 {
		t.Fatalf("shrinker left %d keys over %d reducers, want 1 and 1: %v", len(min.freqs), min.reducers, min)
	}
	// Halving stops once half the value no longer fails, so the residue
	// lands in (10, 21] — a fixed point of the shrink loop, one halving
	// above the minimal failing frequency 11.
	keys := sortedKeys(min.freqs)
	if f := min.freqs[keys[0]]; f <= 10 || f > 21 {
		t.Fatalf("shrinker left frequency %d, want a value in (10, 21]", f)
	}
	if len(in.freqs) != 5 || in.reducers != 7 {
		t.Fatalf("shrinker mutated its input: %v", in)
	}
}
