package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/records"
)

// contractRecords synthesizes a small, varied record stream. Ratings stay
// on the 0.5 dyadic grid the generators use, so floating-point sums are
// exact under any evaluation order and the multiset contract is testable
// byte-for-byte.
func contractRecords() []records.Record {
	rng := rand.New(rand.NewSource(1))
	words := []string{"plot", "twist", "ending", "amazing", "director", "slow", "the", "a", "of", "scene"}
	recs := make([]records.Record, 240)
	for i := range recs {
		n := 3 + rng.Intn(6)
		payload := ""
		for w := 0; w < n; w++ {
			if w > 0 {
				payload += " "
			}
			payload += words[rng.Intn(len(words))]
		}
		recs[i] = records.Record{
			Sub:     fmt.Sprintf("movie-%05d", rng.Intn(3)),
			Time:    int64(rng.Intn(14)) * 3600 * 12,
			Rating:  1 + float64(rng.Intn(9))/2,
			Payload: payload,
		}
	}
	return recs
}

// TestReduceOrderAndSplitInsensitive enforces the App contract every
// registered application must satisfy for heavy-key splitting (and any
// partitioner-dependent shuffle delivery order) to be sound: Reduce is a
// function of the value multiset. For every key an app emits, the output
// must be byte-identical across random permutations of the values and
// across round-robin splits merged in any shard order — exactly the
// re-orderings the skew-aware partitioner's split/merge path produces.
func TestReduceOrderAndSplitInsensitive(t *testing.T) {
	recs := contractRecords()
	for _, app := range Extended() {
		t.Run(app.Name(), func(t *testing.T) {
			groups := make(map[string][]string)
			for _, r := range recs {
				app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
			}
			if len(groups) == 0 {
				t.Fatal("app emitted nothing")
			}
			for key, vs := range groups {
				want := app.Reduce(key, vs)

				// Order-insensitivity: seeded random permutations.
				rng := rand.New(rand.NewSource(7))
				for trial := 0; trial < 5; trial++ {
					perm := append([]string(nil), vs...)
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					if got := app.Reduce(key, perm); got != want {
						t.Fatalf("key %q: permuted values changed Reduce output\nwant %q\ngot  %q", key, want, got)
					}
				}

				// Split-insensitivity: deal the values round-robin into
				// shards (the split partitioner's delivery), then merge the
				// shard lists forward and reversed.
				for _, shardsN := range []int{2, 3, 5} {
					shards := make([][]string, shardsN)
					for i, v := range vs {
						shards[i%shardsN] = append(shards[i%shardsN], v)
					}
					forward := make([]string, 0, len(vs))
					for _, s := range shards {
						forward = append(forward, s...)
					}
					backward := make([]string, 0, len(vs))
					for i := shardsN - 1; i >= 0; i-- {
						backward = append(backward, shards[i]...)
					}
					if got := app.Reduce(key, forward); got != want {
						t.Fatalf("key %q: %d-way split (forward merge) changed Reduce output", key, shardsN)
					}
					if got := app.Reduce(key, backward); got != want {
						t.Fatalf("key %q: %d-way split (reverse merge) changed Reduce output", key, shardsN)
					}
				}
			}
		})
	}
}

// TestCounterContract enforces apps.Counter for every app that implements
// it: over generated movie and event records its Map emits only "1", and
// for every n from 1 to 300, and one large n, ReduceCount(k, n) equals
// Reduce over n "1"s — so the collector may hold a count in place of the
// values it covers.
func TestCounterContract(t *testing.T) {
	recs := append(gen.Movies(gen.MovieConfig{Movies: 20, Reviews: 2000, Seed: 3}),
		gen.Events(gen.EventConfig{Events: 2000, Seed: 3})...)
	for _, app := range Extended() {
		counter, ok := app.(Counter)
		if !ok {
			continue
		}
		t.Run(app.Name(), func(t *testing.T) {
			var keys []string // in order of first emission
			seen := make(map[string]bool)
			for _, r := range recs {
				app.Map(r, func(k, v string) {
					if v != "1" {
						t.Fatalf("key %q: Map emitted %q, want only \"1\"", k, v)
					}
					if !seen[k] {
						seen[k] = true
						keys = append(keys, k)
					}
				})
			}
			if len(keys) == 0 {
				t.Fatal("app emitted nothing")
			}
			var ones []string
			check := func(n int) {
				for len(ones) < n {
					ones = append(ones, "1")
				}
				key := keys[n%len(keys)]
				if got, want := counter.ReduceCount(key, int64(n)), app.Reduce(key, ones[:n]); got != want {
					t.Fatalf("key %q: ReduceCount(%d) = %q, Reduce over %d \"1\"s = %q", key, n, got, n, want)
				}
			}
			for n := 1; n <= 300; n++ {
				check(n)
			}
			check(1<<20 + 7)
		})
	}
}

// TestCounterMembership pins which apps count: the three counts do; an
// average, a truncated top-K, a sorted render or a count+mean join is not
// a count of "1"s, so those must not grow a ReduceCount by accident.
func TestCounterMembership(t *testing.T) {
	want := map[string]bool{"WordCount": true, "WordHistogram": true, "Sessionize": true}
	for _, app := range Extended() {
		if _, ok := app.(Counter); ok != want[app.Name()] {
			t.Errorf("%s implements Counter = %v, want %v", app.Name(), ok, want[app.Name()])
		}
	}
}

// TestDistributedSortGlobalOrder pins the property range partitioning
// exists for: reducer outputs concatenated in reducer order are globally
// sorted, because DistributedSort keys sort lexically as (time, sub).
func TestDistributedSortGlobalOrder(t *testing.T) {
	app := DistributedSort{}
	groups := make(map[string][]string)
	for _, r := range contractRecords() {
		app.Map(r, func(k, v string) { groups[k] = append(groups[k], v) })
	}
	for k, vs := range groups {
		out := app.Reduce(k, vs)
		// Each key's rendering must itself be ascending.
		prev := ""
		for i, part := range splitComma(out) {
			if i > 0 && part < prev {
				t.Fatalf("key %q: unsorted rendering %q", k, out)
			}
			prev = part
		}
	}
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var parts []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == ',' {
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// TestSubDatasetJoinBuildSide checks BuildJoinSide honors the ElasticMap
// distribution: only listed blocks are scanned, and the probe app joins
// against the produced windows.
func TestSubDatasetJoinBuildSide(t *testing.T) {
	day := int64(3600 * 24)
	blocks := [][]records.Record{
		{{Sub: "movie-B", Time: 0, Rating: 4}, {Sub: "movie-A", Time: 0, Rating: 1}},
		{{Sub: "movie-B", Time: day, Rating: 3}},
		{{Sub: "movie-B", Time: 2 * day, Rating: 5}}, // not in the distribution
	}
	dist := []elasticmap.BlockEstimate{{Block: 0, Size: 10}, {Block: 1, Size: 10}}
	build := BuildJoinSide(blocks, dist, "movie-B", day)
	join := NewSubDatasetJoin("movie-B", day, build)
	if got := build[join.JoinKey(0)]; got != "1x4.0000" {
		t.Errorf("window 0 build = %q, want 1x4.0000", got)
	}
	if got := build[join.JoinKey(day)]; got != "1x3.0000" {
		t.Errorf("window 1 build = %q, want 1x3.0000", got)
	}
	if _, ok := build[join.JoinKey(2*day)]; ok {
		t.Error("block outside the ElasticMap distribution was scanned")
	}
	out := join.Reduce(join.JoinKey(2*day), []string{"2.000"})
	if want := "n=1 avg=2.0000 movie-B=-"; out != want {
		t.Errorf("outer-join miss = %q, want %q", out, want)
	}
}
