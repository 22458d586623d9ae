package elasticmap

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"datanet/internal/records"
)

// randBlocks draws n blocks over a 40-key universe with skewed sizes, so
// every block holds dominant and Bloom-resident keys.
func randBlocks(r *rand.Rand, n int) [][]records.Record {
	out := make([][]records.Record, n)
	for b := range out {
		for i := 0; i < 10+r.Intn(30); i++ {
			size := 1 + r.Intn(200)
			if r.Intn(8) == 0 {
				size += r.Intn(1500)
			}
			out[b] = append(out[b], records.Record{Sub: fmt.Sprintf("k%02d", r.Intn(40)), Payload: strings.Repeat("p", size)})
		}
	}
	return out
}

// lossyOpts uses a high false-positive rate so absent keys hit filters.
func lossyOpts() Options {
	return Options{Alpha: 0.3, FPRate: 0.2, BucketBounds: []int64{0, 64, 128, 256, 512, 1024}}
}

// perBlock answers every scan-based query by a loop of BlockMeta.Query
// calls: the reference the one-digest scan must reproduce exactly.
type perBlock struct {
	dist            []BlockEstimate
	weights         []int64
	total           int64
	hashed, bloomed int
}

func queryLoop(a *Array, sub string) perBlock {
	p := perBlock{weights: make([]int64, a.Len())}
	for i := 0; i < a.Len(); i++ {
		m := a.Block(i)
		sz, class := m.Query(sub)
		if class == Absent {
			continue
		}
		p.dist = append(p.dist, BlockEstimate{Block: i, Size: sz, Class: class})
		p.weights[i] = sz
		p.total += sz
		if class == Hashed {
			p.hashed++
		} else {
			p.bloomed++
		}
	}
	return p
}

func scanned(t *testing.T, a *Array, sub string) perBlock {
	t.Helper()
	total, hashed, bloomed := a.EstimateDetailed(sub)
	if est := a.Estimate(sub); est != total {
		t.Fatalf("%s: Estimate %d != EstimateDetailed %d", sub, est, total)
	}
	return perBlock{a.Distribution(sub), a.Weights(sub), total, hashed, bloomed}
}

// Every per-sub query equals the per-block Query loop, over arrays built,
// decoded, merged (with and without the parent's index), appended and
// empty, for every recorded key, absent keys and Bloom false positives.
func TestScanMatchesPerBlockQuery(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	blocks := randBlocks(r, 24)
	built := Build(blocks, lossyOpts())
	blob, err := Encode(built)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	indexedHead := Build(blocks[:15], lossyOpts())
	indexedHead.Index()
	arrays := map[string]*Array{
		"built":          built,
		"decoded":        decoded,
		"merged":         Merge(Build(blocks[:9], lossyOpts()), Build(blocks[9:], lossyOpts())),
		"merged-indexed": Merge(indexedHead, Build(blocks[15:], lossyOpts())),
		"merged-twice":   Merge(Merge(indexedHead, Build(blocks[15:20], lossyOpts())), decoded),
		"appended":       indexedHead.Appended(blocks[15:]),
		"empty":          Build(nil, lossyOpts()),
	}
	probes := built.Subs()
	for i := 0; i < 200; i++ {
		probes = append(probes, fmt.Sprintf("absent-%d", i))
	}
	falsePositives := 0
	for name, arr := range arrays {
		for _, sub := range probes {
			want := queryLoop(arr, sub)
			if got := scanned(t, arr, sub); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: scan %+v, per-block Query %+v", name, sub, got, want)
			}
			if strings.HasPrefix(sub, "absent-") && want.bloomed > 0 {
				falsePositives++
			}
		}
	}
	if falsePositives == 0 {
		t.Fatal("no absent key hit a filter: the false-positive path went untested")
	}
}

// A Merge whose parent index is built hands over an extended index equal
// to a fresh build, without touching the parent's — also when a second
// Merge from the same parent extends the same slices.
func TestMergeExtendsIndex(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	blocks := randBlocks(r, 16)
	parent := Build(blocks[:10], lossyOpts())
	before := flat(parent.Index())
	first := Merge(parent, Build(blocks[10:13], lossyOpts()))
	second := Merge(parent, Build(blocks[13:], lossyOpts()))
	for name, arr := range map[string]*Array{"first": first, "second": second} {
		if arr.idx.Load() == nil {
			t.Fatalf("%s: Merge rebuilt nothing but handed over no index", name)
		}
		if got, want := flat(arr.Index()), flat(NewIndex(arr)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: extended index differs from NewIndex", name)
		}
	}
	if !reflect.DeepEqual(flat(parent.Index()), before) {
		t.Error("Merge wrote into the parent's index")
	}
	if Merge(Build(blocks[:4], lossyOpts()), parent).idx.Load() != nil {
		t.Error("a parent without a built index has nothing to extend")
	}

	// "hot" dominates all three parent blocks, so its index slice has
	// length 3 and spare capacity: both extensions append at the same
	// position, and neither may see the other's entry.
	hot := func(size int) []records.Record {
		return []records.Record{{Sub: "hot", Payload: strings.Repeat("p", size)}, {Sub: "cold", Payload: "p"}}
	}
	three := Build([][]records.Record{hot(500), hot(600), hot(700)}, lossyOpts())
	three.Index()
	small := three.Appended([][]records.Record{hot(100)})
	large := three.Appended([][]records.Record{hot(900)})
	for _, arr := range []*Array{small, large} {
		if got, want := flat(arr.Index())["hot"], flat(NewIndex(arr))["hot"]; !reflect.DeepEqual(got, want) {
			t.Errorf("a sibling extension overwrote hot's entries: %v, want %v", got, want)
		}
	}
	if n := len(flat(three.Index())["hot"].blocks); n != 3 {
		t.Errorf("parent hot entries = %d, want 3", n)
	}
}

// flat is every key's entry, the overlay's over the base's, in fresh
// slices: what a one-level index of the same blocks would hold.
func flat(ix *Index) map[string]dominantEntry {
	out := make(map[string]dominantEntry, ix.DominantSubs())
	for _, level := range []map[string]dominantEntry{ix.base.dominant, ix.over} {
		for sub, e := range level {
			out[sub] = dominantEntry{blocks: slices.Clone(e.blocks), total: e.total}
		}
	}
	return out
}

// Goroutines racing to the first query on a fresh array share one index
// build and all answer correctly (run under -race).
func TestConcurrentFirstQueries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	arr := Build(randBlocks(r, 20), lossyOpts())
	subs := append(arr.Subs(), "absent-1", "absent-2")
	want := make(map[string]int64, len(subs))
	for _, sub := range subs {
		want[sub] = queryLoop(arr, sub).total
	}
	fresh := FromMetas(arr.metas, arr.opts)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range subs {
				sub := subs[(i+g)%len(subs)]
				if got := fresh.Estimate(sub); got != want[sub] {
					errs <- fmt.Sprintf("goroutine %d: Estimate(%s) = %d, want %d", g, sub, got, want[sub])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// preChangeArray is Encode(Build(manyBlocks(4), testOpts(0.3))) as written
// when the Bloom filters still hashed through hash/fnv; its answers below
// were recorded by that build. Decoding it and answering alike pins the
// filters' digests across the move to internal/hashutil.
const preChangeArray = "444e453104333333333333d33f7b14ae47e17a843f55000000000000e83f1306800826dc740603733031b40803733032fc0903733037980903733038e00a03733039a80c03733130f00d287d0000000000000007000000000000000d00000000000000f112a64695db14286b28fdc8ce14061f1306800826dc740603733038b40803733039fc0903733134980903733135e00a03733136a80c03733137f00d287d0000000000000007000000000000000d00000000000000b513264795d955556bcdfdccce06060f1306800826dc740603733032980903733033e00a03733034a80c03733035f00d03733135b40803733136fc09287d0000000000000007000000000000000d00000000000000b510e646959a555f6bf9cc8ccd06060f1306800826dc740603733033b40803733034fc0903733039980903733130e00a03733131a80c03733132f00d287d0000000000000007000000000000000d000000000000007511e2459593557f4b3dec8ccc160613"

func TestDecodesPreChangeEncoding(t *testing.T) {
	blob, _ := hex.DecodeString(preChangeArray)
	arr, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sub                    string
		total, hashed, bloomed int64
	}{
		{"s00", 76, 0, 4}, {"s01", 595, 1, 3}, {"s02", 1264, 2, 2}, {"s03", 1264, 2, 2},
		{"s04", 1464, 2, 2}, {"s05", 945, 1, 3}, {"s06", 76, 0, 4}, {"s07", 645, 1, 3},
		{"s08", 1264, 2, 2}, {"s09", 2033, 3, 1}, {"s10", 1614, 2, 2}, {"s11", 845, 1, 3},
		{"s12", 945, 1, 3}, {"s13", 76, 0, 4}, {"s14", 645, 1, 3}, {"s15", 1264, 2, 2},
		{"s16", 1464, 2, 2}, {"s17", 945, 1, 3}, {"s18", 76, 0, 4},
		// Bloom false positives, then keys every filter rejects.
		{"absent-22", 38, 0, 2}, {"absent-36", 19, 0, 1}, {"absent-71", 19, 0, 1}, {"absent-127", 19, 0, 1},
		{"absent-0", 0, 0, 0}, {"absent-1", 0, 0, 0},
	} {
		total, hashed, bloomed := arr.EstimateDetailed(c.sub)
		if total != c.total || int64(hashed) != c.hashed || int64(bloomed) != c.bloomed {
			t.Errorf("%s: (%d, %d, %d), encoded answers (%d, %d, %d)", c.sub, total, hashed, bloomed, c.total, c.hashed, c.bloomed)
		}
	}
	again, _ := Encode(arr)
	if !bytes.Equal(again, blob) {
		t.Error("re-encoding the decoded array changed its bytes")
	}
}

// withFilterBlob encodes a one-block array whose Bloom filter is replaced
// by a filter blob with the given header (m, k) and bitmap.
func withFilterBlob(m, k uint64, bitmap []uint64) []byte {
	meta := BuildBlockMeta(twoBlockFixture()[0], fixtureOpts())
	enc, _ := Encode(FromMetas([]*BlockMeta{meta}, fixtureOpts()))
	fb, _ := meta.filter.MarshalBinary()
	enc = enc[:len(enc)-len(fb)-1] // a one-byte uvarint: the fixture's filter is small
	blob := make([]byte, 24+8*len(bitmap))
	binary.LittleEndian.PutUint64(blob[0:], m)
	binary.LittleEndian.PutUint64(blob[8:], k)
	for i, w := range bitmap {
		binary.LittleEndian.PutUint64(blob[24+8*i:], w)
	}
	enc = binary.AppendUvarint(enc, uint64(len(blob)))
	return append(enc, blob...)
}

// Regression: Decode accepted a filter header with m = 2^64−1 and no
// bitmap (the first Estimate then indexed past it), and a huge k over an
// all-ones bitmap (the first probe then looped without bound).
func TestDecodeRejectsBadFilterHeader(t *testing.T) {
	if _, err := Decode(withFilterBlob(64, 3, []uint64{0})); err != nil {
		t.Fatalf("the well-formed control payload must decode: %v", err)
	}
	for name, data := range map[string][]byte{
		"wrapping m": withFilterBlob(math.MaxUint64, 1, nil),
		"huge k":     withFilterBlob(64, math.MaxUint64, []uint64{math.MaxUint64}),
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted a corrupt filter", name)
		}
	}
}
