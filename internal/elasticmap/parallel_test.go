package elasticmap

import (
	"fmt"
	"strings"
	"testing"

	"datanet/internal/records"
)

func manyBlocks(n int) [][]records.Record {
	out := make([][]records.Record, n)
	for b := range out {
		var recs []records.Record
		for i := 0; i < 30; i++ {
			recs = append(recs, records.Record{
				Sub:     fmt.Sprintf("s%02d", (b*7+i)%19),
				Payload: strings.Repeat("p", (i%11)*50),
			})
		}
		out[b] = recs
	}
	return out
}

// Parallel construction must be bit-identical to sequential.
func TestBuildParallelMatchesSequential(t *testing.T) {
	blocks := manyBlocks(40)
	opts := testOpts(0.3)
	seq := Build(blocks, opts)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		par := BuildParallel(blocks, opts, workers)
		if par.Len() != seq.Len() {
			t.Fatalf("workers=%d: len %d vs %d", workers, par.Len(), seq.Len())
		}
		for b := 0; b < seq.Len(); b++ {
			for i := 0; i < 19; i++ {
				sub := fmt.Sprintf("s%02d", i)
				s1, c1 := seq.Block(b).Query(sub)
				s2, c2 := par.Block(b).Query(sub)
				if s1 != s2 || c1 != c2 {
					t.Fatalf("workers=%d block=%d sub=%s: (%d,%v) vs (%d,%v)",
						workers, b, sub, s1, c1, s2, c2)
				}
			}
		}
	}
}

func TestAppendExtends(t *testing.T) {
	blocks := manyBlocks(10)
	base := Build(blocks[:6], testOpts(0.3))
	arr := base.Appended(blocks[6:])
	if base.Len() != 6 {
		t.Fatalf("Appended changed its receiver: Len = %d", base.Len())
	}
	if arr.Len() != 10 {
		t.Fatalf("Len = %d after append", arr.Len())
	}
	whole := Build(blocks, testOpts(0.3))
	for i := 0; i < 19; i++ {
		sub := fmt.Sprintf("s%02d", i)
		if arr.Estimate(sub) != whole.Estimate(sub) {
			t.Errorf("append diverges for %s: %d vs %d", sub, arr.Estimate(sub), whole.Estimate(sub))
		}
	}
}

func TestMerge(t *testing.T) {
	blocks := manyBlocks(8)
	a := Build(blocks[:3], testOpts(0.3))
	b := Build(blocks[3:], testOpts(0.3))
	m := Merge(a, b)
	if m.Len() != 8 {
		t.Fatalf("merged Len = %d", m.Len())
	}
	whole := Build(blocks, testOpts(0.3))
	for i := 0; i < 19; i++ {
		sub := fmt.Sprintf("s%02d", i)
		if m.Estimate(sub) != whole.Estimate(sub) {
			t.Errorf("merge diverges for %s", sub)
		}
	}
	// Inputs untouched.
	if a.Len() != 3 || b.Len() != 5 {
		t.Error("merge mutated its inputs")
	}
}

func TestIndex(t *testing.T) {
	blocks := manyBlocks(12)
	arr := Build(blocks, testOpts(0.5))
	idx := NewIndex(arr)
	if idx.DominantSubs() == 0 {
		t.Fatal("no dominant subs indexed")
	}
	entries := flat(idx)
	for i := 0; i < 19; i++ {
		sub := fmt.Sprintf("s%02d", i)
		// The inverted view must agree with per-block queries on hashed
		// entries exactly.
		var want int64
		var wantBlocks int
		for b := 0; b < arr.Len(); b++ {
			if sz, class := arr.Block(b).Query(sub); class == Hashed {
				want += sz
				wantBlocks++
			}
		}
		got := entries[sub].total
		if got != want {
			t.Errorf("%s: dominant total %d, want %d", sub, got, want)
		}
		if len(entries[sub].blocks) != wantBlocks {
			t.Errorf("%s: distribution blocks %d, want %d", sub, len(entries[sub].blocks), wantBlocks)
		}
		// Dominant estimate is a lower bound on Eq. 6.
		if got > arr.Estimate(sub) {
			t.Errorf("%s: dominant %d exceeds Eq.6 %d", sub, got, arr.Estimate(sub))
		}
	}
	if e, ok := entries["nope"]; ok || e.blocks != nil {
		t.Error("unknown sub should return nil")
	}
}

func TestIndexTop(t *testing.T) {
	blocks := manyBlocks(12)
	arr := Build(blocks, testOpts(0.5))
	idx := NewIndex(arr)
	top := idx.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Bytes > top[i-1].Bytes {
			t.Fatal("Top not sorted descending")
		}
	}
	if top[0].Bytes != flat(idx)[top[0].Sub].total {
		t.Error("Top bytes disagree with the indexed total")
	}
	if got := idx.Top(0); len(got) != 0 {
		t.Errorf("Top(0) = %v", got)
	}
	if got := idx.Top(-3); len(got) != 0 {
		t.Errorf("Top(-3) = %v", got)
	}
	all := idx.Top(1 << 20)
	if len(all) != idx.DominantSubs() {
		t.Errorf("Top(huge) = %d, want %d", len(all), idx.DominantSubs())
	}
}
