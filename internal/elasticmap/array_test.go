package elasticmap

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"datanet/internal/records"
)

// twoBlockFixture: sub "hero" dominates block 0 and trickles in block 1;
// background subs fill the rest.
func twoBlockFixture() [][]records.Record {
	pay := func(n int) string { return strings.Repeat("p", n) }
	b0 := []records.Record{
		{Sub: "hero", Payload: pay(3000)},
		{Sub: "hero", Payload: pay(2000)},
		{Sub: "bg-0", Payload: pay(50)},
		{Sub: "bg-1", Payload: pay(60)},
		{Sub: "bg-2", Payload: pay(70)},
	}
	b1 := []records.Record{
		{Sub: "hero", Payload: pay(40)},
		{Sub: "bg-0", Payload: pay(2500)},
		{Sub: "bg-3", Payload: pay(30)},
		{Sub: "bg-4", Payload: pay(45)},
	}
	return [][]records.Record{b0, b1}
}

func fixtureOpts() Options {
	return Options{Alpha: 0.4, BucketBounds: []int64{0, 64, 128, 512, 1024, 4096}}
}

func TestArrayBuildAndLen(t *testing.T) {
	arr := Build(twoBlockFixture(), fixtureOpts())
	if arr.Len() != 2 {
		t.Fatalf("Len = %d", arr.Len())
	}
	if arr.Block(0).NumSubs() != 4 || arr.Block(1).NumSubs() != 4 {
		t.Errorf("per-block sub counts: %d, %d", arr.Block(0).NumSubs(), arr.Block(1).NumSubs())
	}
}

func TestArrayDistribution(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	dist := arr.Distribution("hero")
	if len(dist) != 2 {
		t.Fatalf("hero should appear in both blocks: %v", dist)
	}
	truth0 := records.BySub(blocks[0])["hero"]
	if dist[0].Block != 0 || dist[0].Class != Hashed || dist[0].Size != truth0 {
		t.Errorf("block-0 estimate = %+v, want exact %d", dist[0], truth0)
	}
	// hero is tiny in block 1 → bloomed with δ approximation.
	if dist[1].Block != 1 || dist[1].Class != Bloomed {
		t.Errorf("block-1 estimate = %+v, want Bloomed", dist[1])
	}
	// Weights is the same estimate, dense: zero where the sub is absent.
	if w := arr.Weights("hero"); len(w) != 2 || w[0] != dist[0].Size || w[1] != dist[1].Size {
		t.Errorf("Weights(hero) = %v, want the distribution's sizes %v", w, dist)
	}
	if w := arr.Weights("nobody"); len(w) != 2 || w[0] != 0 || w[1] != 0 {
		t.Errorf("Weights of an absent sub = %v, want zeros", w)
	}
}

func TestArrayEstimateEq6(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	total, hashed, bloomed := arr.EstimateDetailed("hero")
	if hashed != 1 || bloomed != 1 {
		t.Fatalf("τ1=%d τ2=%d, want 1 and 1", hashed, bloomed)
	}
	want := records.BySub(blocks[0])["hero"] + arr.Block(1).delta
	if total != want {
		t.Errorf("Eq.6 estimate = %d, want %d", total, want)
	}
	if got := arr.Estimate("hero"); got != total {
		t.Errorf("Estimate = %d, EstimateDetailed total = %d", got, total)
	}
}

func TestArrayRawBytes(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	var want int64
	for _, b := range blocks {
		want += records.TotalSize(b)
	}
	if got := arr.RawBytes(); got != want {
		t.Errorf("RawBytes = %d, want %d", got, want)
	}
}

func TestArrayAccuracyBounds(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	subs := []string{"hero", "bg-0", "bg-1", "bg-2", "bg-3", "bg-4"}
	chi := arr.OverallAccuracy(subs)
	if chi < 0 || chi > 1 {
		t.Fatalf("χ = %g out of [0,1]", chi)
	}
	if chi < 0.5 {
		t.Errorf("χ = %g unexpectedly low for a mostly-hashed fixture", chi)
	}
	// α=1 must be perfectly accurate.
	opts := fixtureOpts()
	opts.Alpha = 1
	exact := Build(blocks, opts)
	if chi := exact.OverallAccuracy(subs); chi < 0.999 {
		t.Errorf("α=1 accuracy = %g, want 1", chi)
	}
}

func TestAccuracyMonotoneInAlpha(t *testing.T) {
	// Many blocks with mixed content: accuracy should not degrade as α
	// grows.
	var blocks [][]records.Record
	for b := 0; b < 10; b++ {
		var recs []records.Record
		for i := 0; i < 40; i++ {
			recs = append(recs, records.Record{
				Sub:     fmt.Sprintf("s%02d", (b+i)%25),
				Payload: strings.Repeat("q", (i%13)*40),
			})
		}
		blocks = append(blocks, recs)
	}
	var subs []string
	for i := 0; i < 25; i++ {
		subs = append(subs, fmt.Sprintf("s%02d", i))
	}
	opts := fixtureOpts()
	prev := -1.0
	for _, a := range []float64{0.1, 0.3, 0.6, 1.0} {
		opts.Alpha = a
		chi := Build(blocks, opts).OverallAccuracy(subs)
		if chi < prev-0.02 { // small tolerance: bucket granularity
			t.Errorf("accuracy dropped at α=%g: %g < %g", a, chi, prev)
		}
		prev = chi
	}
}

func TestSubAccuracy(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	var actual int64
	for _, b := range blocks {
		actual += records.BySub(b)["hero"]
	}
	est, rel := arr.SubAccuracy("hero", actual)
	if est <= 0 {
		t.Fatalf("estimate = %d", est)
	}
	if rel > 0.05 {
		t.Errorf("relative error %g too large for a dominant sub", rel)
	}
	if _, rel := arr.SubAccuracy("hero", 0); rel != 0 {
		t.Error("zero actual should yield zero relative error")
	}
}

func TestRepresentationRatioAndMeanAlpha(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	if r := arr.RepresentationRatio(); r <= 0 {
		t.Errorf("RepresentationRatio = %g", r)
	}
	ma := arr.MeanAlpha()
	if ma <= 0 || ma > 1 {
		t.Errorf("MeanAlpha = %g", ma)
	}
	empty := Build(nil, fixtureOpts())
	if empty.MeanAlpha() != 0 || empty.RepresentationRatio() != 0 {
		t.Error("empty array ratios should be 0")
	}
}

func TestArraySubs(t *testing.T) {
	arr := Build(twoBlockFixture(), fixtureOpts())
	subs := arr.Subs()
	// hero and bg-0 are dominant somewhere; list must be sorted.
	foundHero := false
	for i, s := range subs {
		if s == "hero" {
			foundHero = true
		}
		if i > 0 && subs[i-1] >= s {
			t.Fatalf("Subs not sorted: %v", subs)
		}
	}
	if !foundHero {
		t.Errorf("Subs = %v, missing hero", subs)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	blocks := twoBlockFixture()
	arr := Build(blocks, fixtureOpts())
	data, err := Encode(arr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != arr.Len() {
		t.Fatalf("Len = %d, want %d", back.Len(), arr.Len())
	}
	for _, sub := range []string{"hero", "bg-0", "bg-1", "bg-3", "nonexistent"} {
		for b := 0; b < arr.Len(); b++ {
			s1, c1 := arr.Block(b).Query(sub)
			s2, c2 := back.Block(b).Query(sub)
			if s1 != s2 || c1 != c2 {
				t.Errorf("block %d sub %q: (%d,%v) vs (%d,%v)", b, sub, s1, c1, s2, c2)
			}
		}
	}
	if arr.MemoryBits() != back.MemoryBits() {
		t.Errorf("memory mismatch after roundtrip: %d vs %d", arr.MemoryBits(), back.MemoryBits())
	}
}

// Encode is canonical: hash-map entries are written in key order, so one
// array always encodes to the same bytes and a decoded array re-encodes to
// the bytes it came from (Go's map iteration order must not leak).
func TestEncodeCanonical(t *testing.T) {
	var blocks [][]records.Record
	for b := 0; b < 4; b++ {
		var blk []records.Record
		for s := 0; s < 200; s++ {
			blk = append(blk, records.Record{
				Sub:     fmt.Sprintf("sub-%03d", (s*7+b)%200),
				Payload: strings.Repeat("p", 20+(s*37+b*11)%900),
			})
		}
		blocks = append(blocks, blk)
	}
	arr := Build(blocks, Options{Alpha: 0.5, BucketBounds: []int64{0, 64, 128, 256, 512, 1024}})
	if n := arr.Block(0).NumHashed(); n < 50 {
		t.Fatalf("fixture too small to expose map order: %d hashed subs", n)
	}
	first, err := Encode(arr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := Encode(arr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("Encode call %d of the same array produced different bytes", i+2)
		}
	}
	back, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Encode(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, re) {
		t.Error("Encode(Decode(Encode(a))) differs from Encode(a)")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage must fail")
	}
	arr := Build(twoBlockFixture(), fixtureOpts())
	data, _ := Encode(arr)
	for _, cut := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d silently succeeded", cut)
		}
	}
}

func TestFromMetas(t *testing.T) {
	blocks := twoBlockFixture()
	metas := []*BlockMeta{
		BuildBlockMeta(blocks[0], fixtureOpts()),
		BuildBlockMeta(blocks[1], fixtureOpts()),
	}
	arr := FromMetas(metas, fixtureOpts())
	if arr.Len() != 2 || arr.Estimate("hero") == 0 {
		t.Error("FromMetas broken")
	}
}
