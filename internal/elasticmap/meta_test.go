package elasticmap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"datanet/internal/records"
)

// block builds a synthetic block: nBig dominant subs of bigSize bytes
// (payload-adjusted) and nSmall non-dominant subs of smallSize bytes.
func block(nBig int, bigSize int, nSmall int, smallSize int) []records.Record {
	var recs []records.Record
	pay := func(total int) string {
		n := total - 16 - 8 // overhead + key length ≈
		if n < 0 {
			n = 0
		}
		return strings.Repeat("x", n)
	}
	for i := 0; i < nBig; i++ {
		recs = append(recs, records.Record{Sub: fmt.Sprintf("big-%03d", i), Payload: pay(bigSize)})
	}
	for i := 0; i < nSmall; i++ {
		recs = append(recs, records.Record{Sub: fmt.Sprintf("sml-%03d", i), Payload: pay(smallSize)})
	}
	return recs
}

func testOpts(alpha float64) Options {
	return Options{Alpha: alpha, BucketBounds: []int64{0, 64, 128, 256, 512, 1024, 4096, 16384}}
}

func TestBuildBlockMetaSplit(t *testing.T) {
	recs := block(5, 2000, 45, 100)
	meta := BuildBlockMeta(recs, testOpts(0.1)) // target: 5 of 50 hashed
	if meta.NumSubs() != 50 {
		t.Fatalf("NumSubs = %d", meta.NumSubs())
	}
	if meta.NumHashed() != 5 {
		t.Fatalf("NumHashed = %d, want 5 (the dominant subs)", meta.NumHashed())
	}
	truth := records.BySub(recs)
	for i := 0; i < 5; i++ {
		sub := fmt.Sprintf("big-%03d", i)
		sz, class := meta.Query(sub)
		if class != Hashed {
			t.Errorf("%s class = %v, want Hashed", sub, class)
		}
		if sz != truth[sub] {
			t.Errorf("%s size = %d, want exact %d", sub, sz, truth[sub])
		}
	}
	for i := 0; i < 45; i++ {
		sub := fmt.Sprintf("sml-%03d", i)
		sz, class := meta.Query(sub)
		if class != Bloomed {
			t.Errorf("%s class = %v, want Bloomed", sub, class)
		}
		if sz != meta.delta {
			t.Errorf("%s size = %d, want δ=%d", sub, sz, meta.delta)
		}
	}
}

// The ElasticMap must never lose a sub-dataset entirely: every sub present
// in the block is either hashed or (at least) bloom-visible.
func TestNoSubLost(t *testing.T) {
	recs := block(3, 1500, 30, 80)
	for _, alpha := range []float64{0.05, 0.3, 0.7, 1.0} {
		meta := BuildBlockMeta(recs, testOpts(alpha))
		for sub := range records.BySub(recs) {
			if _, class := meta.Query(sub); class == Absent {
				t.Errorf("alpha=%g: sub %s lost", alpha, sub)
			}
		}
	}
}

func TestAlphaOneHashesEverything(t *testing.T) {
	recs := block(3, 1500, 30, 80)
	meta := BuildBlockMeta(recs, testOpts(1.0))
	if meta.NumHashed() != meta.NumSubs() {
		t.Errorf("alpha=1 hashed %d of %d", meta.NumHashed(), meta.NumSubs())
	}
	if meta.HashedAlpha() != 1 {
		t.Errorf("HashedAlpha = %g", meta.HashedAlpha())
	}
	truth := records.BySub(recs)
	for sub, want := range truth {
		if sz, class := meta.Query(sub); class != Hashed || sz != want {
			t.Errorf("%s: (%d, %v), want exact (%d, Hashed)", sub, sz, class, want)
		}
	}
}

func TestDeltaIsMinNonDominant(t *testing.T) {
	recs := block(2, 4000, 10, 120)
	meta := BuildBlockMeta(recs, testOpts(0.2))
	truth := records.BySub(recs)
	min := int64(1 << 62)
	for sub, sz := range truth {
		if strings.HasPrefix(sub, "sml-") && sz < min {
			min = sz
		}
	}
	if meta.delta != min {
		t.Errorf("Delta = %d, want smallest non-dominant %d", meta.delta, min)
	}
}

func TestDeltaFallsBackToHashedMin(t *testing.T) {
	recs := block(4, 1000, 0, 0)
	meta := BuildBlockMeta(recs, testOpts(1.0))
	truth := records.BySub(recs)
	min := int64(1 << 62)
	for _, sz := range truth {
		if sz < min {
			min = sz
		}
	}
	if meta.delta != min {
		t.Errorf("Delta = %d, want hashed min %d", meta.delta, min)
	}
}

func TestQueryAbsent(t *testing.T) {
	meta := BuildBlockMeta(block(2, 1000, 5, 100), testOpts(0.3))
	// Probing many absent keys: the 1% FP rate means almost all must
	// report Absent.
	absent := 0
	for i := 0; i < 1000; i++ {
		if _, class := meta.Query(fmt.Sprintf("nope-%d", i)); class == Absent {
			absent++
		}
	}
	if absent < 950 {
		t.Errorf("only %d/1000 absent probes reported Absent", absent)
	}
}

func TestEmptyBlock(t *testing.T) {
	meta := BuildBlockMeta(nil, testOpts(0.3))
	if meta.NumSubs() != 0 || meta.RawBytes() != 0 || meta.delta != 0 {
		t.Errorf("empty block meta: %+v", meta)
	}
	if _, class := meta.Query("anything"); class == Hashed {
		t.Error("empty block cannot hash anything")
	}
}

func TestCostBitsEquation5(t *testing.T) {
	opts := Options{FPRate: 0.01, HashEntryBits: 85, LoadFactor: 0.75}
	// Eq. 5 at α=0: pure Bloom; at α=1: pure hash.
	m := 1000
	bloomOnly := opts.CostBits(m, 0)
	hashOnly := opts.CostBits(m, 1)
	if bloomOnly >= hashOnly {
		t.Errorf("bloom-only (%g) should be cheaper than hash-only (%g)", bloomOnly, hashOnly)
	}
	// Paper's example: ~10 bits vs ~85/δ≈113 bits per sub-dataset.
	perSubBloom := bloomOnly / float64(m)
	if perSubBloom < 9 || perSubBloom > 10 {
		t.Errorf("bloom bits/sub = %g, want ≈9.6", perSubBloom)
	}
	perSubHash := hashOnly / float64(m)
	if perSubHash < 110 || perSubHash > 115 {
		t.Errorf("hash bits/sub = %g, want ≈113", perSubHash)
	}
	// Monotone in α.
	prev := -1.0
	for a := 0.0; a <= 1.0; a += 0.1 {
		c := opts.CostBits(m, a)
		if c < prev {
			t.Fatalf("cost not monotone at α=%g", a)
		}
		prev = c
	}
}

func TestMemoryBudgetPicksAlpha(t *testing.T) {
	recs := block(5, 2000, 45, 100)
	// A huge budget hashes everything.
	rich := BuildBlockMeta(recs, Options{MemoryBudgetBits: 1 << 30, BucketBounds: testOpts(0).BucketBounds})
	if rich.HashedAlpha() != 1 {
		t.Errorf("rich budget α = %g, want 1", rich.HashedAlpha())
	}
	// A tiny budget hashes (almost) nothing.
	poor := BuildBlockMeta(recs, Options{MemoryBudgetBits: 1, BucketBounds: testOpts(0).BucketBounds})
	if poor.NumHashed() > rich.NumHashed()/5 {
		t.Errorf("poor budget hashed %d, rich %d", poor.NumHashed(), rich.NumHashed())
	}
	// Budget respected by the Eq.-5 model for the realized α.
	mid := BuildBlockMeta(recs, Options{MemoryBudgetBits: 2000, BucketBounds: testOpts(0).BucketBounds})
	if model := mid.opts.CostBits(mid.numSubs, mid.HashedAlpha()); model > 2000*1.25 {
		t.Errorf("model cost %g blows the 2000-bit budget", model)
	}
}

func TestMemoryBitsPositiveAndOrdered(t *testing.T) {
	recs := block(5, 2000, 45, 100)
	lo := BuildBlockMeta(recs, testOpts(0.1))
	hi := BuildBlockMeta(recs, testOpts(1.0))
	if lo.MemoryBits() <= 0 || hi.MemoryBits() <= 0 {
		t.Fatal("memory must be positive")
	}
	if lo.MemoryBits() >= hi.MemoryBits() {
		t.Errorf("α=0.1 memory (%d) should undercut α=1 (%d)", lo.MemoryBits(), hi.MemoryBits())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != DefaultAlpha || o.FPRate != 0.01 || o.HashEntryBits != 85 || o.LoadFactor != 0.75 {
		t.Errorf("defaults = %+v", o)
	}
	clamped := Options{Alpha: 7}.withDefaults()
	if clamped.Alpha != 1 {
		t.Errorf("alpha not clamped: %g", clamped.Alpha)
	}
}

func TestClassString(t *testing.T) {
	if Hashed.String() != "hashed" || Bloomed.String() != "bloomed" || Absent.String() != "absent" {
		t.Error("Class.String() wrong")
	}
}

// Property: hashed sizes are always exact, and the hashed set is exactly
// the subs at or above the threshold.
func TestHashedExactQuick(t *testing.T) {
	f := func(sizes []uint16, alphaRaw uint8) bool {
		var recs []records.Record
		for i, s := range sizes {
			n := int(s) % 600
			recs = append(recs, records.Record{Sub: fmt.Sprintf("q%d", i%11), Payload: strings.Repeat("z", n)})
		}
		alpha := float64(alphaRaw%101) / 100
		if alpha == 0 {
			alpha = 0.3
		}
		meta := BuildBlockMeta(recs, testOpts(alpha))
		truth := records.BySub(recs)
		for sub, want := range truth {
			sz, class := meta.Query(sub)
			switch class {
			case Hashed:
				if sz != want || want < meta.threshold {
					return false
				}
			case Bloomed:
				if want >= meta.threshold {
					return false
				}
			case Absent:
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
