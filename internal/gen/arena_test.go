package gen

import (
	"math/rand"
	"testing"

	"datanet/internal/records"
)

// countingSource counts the Int63 draws taken from a source.
type countingSource struct {
	rand.Source
	draws int
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.Source.Int63()
}

// TestIntnMatchesRandIntn checks that intn returns what (*rand.Rand).Intn
// returns on the same seeded stream, takes as many draws, and so leaves
// the source where Intn leaves it: the next Int63 is equal.
func TestIntnMatchesRandIntn(t *testing.T) {
	ns := []int{1, 2, 3, 7, 8, 9, 26, 70, 1 << 30, 1<<31 - 1,
		1<<30 + 1, 3<<29 + 7} // these two reject about half and a quarter of all draws
	pick := rand.New(rand.NewSource(1404))
	for i := 0; i < 20; i++ {
		ns = append(ns, 1+pick.Intn(1<<31-1))
	}
	rejections := 0
	for _, n := range ns {
		seed := int64(n) ^ 0x5eed
		wantSrc := &countingSource{Source: rand.NewSource(seed)}
		want := rand.New(wantSrc)
		src := &countingSource{Source: rand.NewSource(seed)}
		for j := 0; j < 2000; j++ {
			before := src.draws
			if got, w := intn(src, n), want.Intn(n); got != w {
				t.Fatalf("n=%d draw %d: intn %d, rand.Intn %d", n, j, got, w)
			}
			if src.draws != wantSrc.draws {
				t.Fatalf("n=%d draw %d: intn took %d draws in all, rand.Intn %d", n, j, src.draws, wantSrc.draws)
			}
			rejections += src.draws - before - 1
		}
		if got, w := src.Int63(), want.Int63(); got != w {
			t.Errorf("n=%d: next Int63 %d after intn, %d after rand.Intn", n, got, w)
		}
	}
	if rejections == 0 {
		t.Error("no draw was rejected: the rejection loop went untested")
	}
}

// TestGeneratorAllocsBounded shows that Movies, Events and WorldCup
// allocate per distinct sub-dataset and per arena chunk, not per record:
// at two sizes, the count stays within sub-datasets × perSub + chunks +
// fixed. The count is deterministic, so a payload that leaves the arena
// fails here.
func TestGeneratorAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	cases := []struct {
		name   string
		gen    func(n int) []records.Record
		perSub int // allocations per distinct key
		fixed  int
	}{
		// A movie key is fmt's string and, past 255, its boxed index.
		{"movies", func(n int) []records.Record {
			return Movies(MovieConfig{Movies: 300, Reviews: n, Seed: 3})
		}, 2, 20},
		// An event type's tag token is its lowercase name.
		{"events", func(n int) []records.Record { return Events(EventConfig{Events: n, Seed: 3}) }, 1, 20},
		// A team key is fmt's string; section keys are constants.
		{"weblog", func(n int) []records.Record { return WorldCup(WorldCupConfig{Requests: n, Seed: 3}) }, 1, 20},
	}
	for _, c := range cases {
		for _, n := range []int{4000, 40000} {
			recs := c.gen(n)
			subs := len(records.BySub(recs))
			var bytes, longest int
			for _, r := range recs {
				bytes += len(r.Payload)
				longest = max(longest, len(r.Payload))
			}
			// A chunk is left with fewer than longest bytes unused.
			chunks := 1 + bytes/(arenaChunk-longest)
			allocs := testing.AllocsPerRun(2, func() { c.gen(n) })
			if bound := subs*c.perSub + chunks + c.fixed; allocs > float64(bound) {
				t.Errorf("%s, %d records: %v allocations, want ≤ %d (%d sub-datasets × %d + %d chunks + %d)",
					c.name, n, allocs, bound, subs, c.perSub, chunks, c.fixed)
			}
		}
	}
}
