package elasticmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"datanet/internal/records"
)

// matchesFresh fails t unless arr's own index, however it was extended,
// holds what a fresh NewIndex of arr holds: every key's joined block list
// and total, the key count, and Top(n) for every n from 0 to K+1.
func matchesFresh(t *testing.T, arr *Array) {
	t.Helper()
	ix, fresh := arr.Index(), NewIndex(arr)
	if got, want := flat(ix), flat(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("extended index %v, fresh %v", got, want)
	}
	k := fresh.DominantSubs()
	if ix.DominantSubs() != k {
		t.Fatalf("DominantSubs %d, fresh %d", ix.DominantSubs(), k)
	}
	totals := hashedTotals(arr)
	for n := 0; n <= k+1; n++ {
		want := topReference(totals, n)
		if got := ix.Top(n); !slices.Equal(got, want) {
			t.Fatalf("Top(%d) = %v, want %v", n, got, want)
		}
		if got := fresh.Top(n); !slices.Equal(got, want) {
			t.Fatalf("fresh Top(%d) = %v, want %v", n, got, want)
		}
	}
	if got, want := arr.Subs(), FromMetas(arr.metas, arr.opts).Subs(); !slices.Equal(got, want) {
		t.Fatalf("Subs %v, fresh %v", got, want)
	}
}

// A chain of Merge and Appended calls of 1–10 blocks each, over keys that
// recur and keys that are new, equals a fresh index at every epoch, across
// several folds and epochs with an overlay — scans included. Each epoch
// is also extended a second time, concurrently with the first (run under
// -race): neither sibling sees the other's blocks, and the parent keeps
// its own.
func TestIndexChainMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	universe := 0
	draw := func(n int) [][]records.Record {
		out := make([][]records.Record, n)
		for b := range out {
			for i := 0; i < 10+r.Intn(30); i++ {
				size := 1 + r.Intn(200)
				if r.Intn(6) == 0 {
					size += r.Intn(1500)
				}
				out[b] = append(out[b], records.Record{Sub: fmt.Sprintf("c%03d", r.Intn(universe)), Payload: strings.Repeat("p", size)})
			}
		}
		return out
	}
	absent := []string{"absent-1", "absent-2", "absent-3", "absent-4"}
	folds, overlaid := 0, 0
	for trial := 0; trial < 6; trial++ {
		universe = 20
		arr := Build(draw(4+r.Intn(12)), lossyOpts())
		arr.Index()
		for epoch := 0; epoch < 25; epoch++ {
			universe += r.Intn(6)
			mine, theirs := draw(1+r.Intn(10)), draw(1+r.Intn(10))
			before := flat(arr.Index())
			var next, sibling *Array
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				if epoch%2 == 0 {
					next = arr.Appended(mine)
				} else {
					next = Merge(arr, Build(mine, lossyOpts()))
				}
			}()
			go func() {
				defer wg.Done()
				sibling = arr.Appended(theirs)
			}()
			wg.Wait()
			if !reflect.DeepEqual(flat(arr.Index()), before) {
				t.Fatalf("trial %d epoch %d: an extension wrote into its parent's index", trial, epoch)
			}
			matchesFresh(t, sibling)
			matchesFresh(t, next)
			if next.Index().base != arr.Index().base {
				folds++
			}
			if len(next.Index().over) > 0 {
				overlaid++
			}
			fresh := FromMetas(next.metas, next.opts)
			for _, sub := range append(fresh.Subs(), absent...) {
				if got, want := scanned(t, next, sub), scanned(t, fresh, sub); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d epoch %d %s: chained %+v, fresh %+v", trial, epoch, sub, got, want)
				}
			}
			arr = next
		}
	}
	if folds < 10 || overlaid < 10 {
		t.Fatalf("%d folds and %d epochs with an overlay: the chain did not cross both", folds, overlaid)
	}
}

// FuzzIndexChain: a chain of small appended blocks indexes, at every
// epoch, what a fresh NewIndex does, Top included. The bytes decode into
// blocks: a header byte h (1 + h&7 records; the block closes an
// extension when h&0x80 is set), then a (key, size) byte pair per record.
// The first extension is the base; the rest go through Merge or Appended
// by h&0x40.
func FuzzIndexChain(f *testing.F) {
	f.Add([]byte{0x82, 1, 200, 2, 90, 3, 10, 0x81, 1, 150, 4, 60, 0xc0, 5, 255, 0x81, 2, 100, 6, 1})
	f.Add([]byte{0x87, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 0xc7, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 16})
	f.Add([]byte{0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var arr *Array
		var pending [][]records.Record
		for len(data) > 0 {
			h := data[0]
			data = data[1:]
			var recs []records.Record
			for i := 0; i <= int(h&7) && len(data) >= 2; i++ {
				recs = append(recs, records.Record{Sub: fmt.Sprintf("f%02d", data[0]%24), Payload: strings.Repeat("p", int(data[1]))})
				data = data[2:]
			}
			pending = append(pending, recs)
			if h&0x80 == 0 && len(data) > 0 {
				continue
			}
			switch {
			case arr == nil:
				arr = Build(pending, lossyOpts())
				arr.Index()
			case h&0x40 != 0:
				arr = Merge(arr, Build(pending, lossyOpts()))
			default:
				arr = arr.Appended(pending)
			}
			pending = nil
			matchesFresh(t, arr)
		}
	})
}

// BenchmarkIndexExtended times one 10-block extension of a 1 000-block
// array's index at about 1k, 4k and 16k keys. Each block holds 20
// dominant keys: the base's blocks cover every key, and the appended
// blocks draw theirs from a Zipf law (s = 1.1, as skewed as a ratings
// log) or uniformly (the worst case: every extension touches new keys).
// The extensions chain 32 deep from the base, so folds weigh in at their
// amortised rate.
func BenchmarkIndexExtended(b *testing.B) {
	for _, draw := range []string{"zipf", "uniform"} {
		for _, keys := range []int{1 << 10, 1 << 12, 1 << 14} {
			b.Run(fmt.Sprintf("%s/keys=%d", draw, keys), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				pick := func() int { return r.Intn(keys) }
				if draw == "zipf" {
					z := rand.NewZipf(r, 1.1, 1, uint64(keys-1))
					pick = func() int { return int(z.Uint64()) }
				}
				block := func(key func(j int) int) *BlockMeta {
					hash := make(map[string]int64, 20)
					for j := 0; j < 20; j++ {
						hash[fmt.Sprintf("key-%05d", key(j))] = 1 + r.Int63n(1<<20)
					}
					return &BlockMeta{hash: hash}
				}
				metas := make([]*BlockMeta, 1000)
				for i := range metas {
					metas[i] = block(func(j int) int { return (20*i + j) % keys })
				}
				base := FromMetas(metas, Options{})
				base.Index()
				batches := make([]*Array, 32)
				for k := range batches {
					ten := make([]*BlockMeta, 10)
					for i := range ten {
						ten[i] = block(func(int) int { return pick() })
					}
					batches[k] = FromMetas(ten, Options{})
				}
				b.ReportAllocs()
				arr, k := base, 0
				for b.Loop() {
					if k == len(batches) {
						arr, k = base, 0
					}
					arr, k = Merge(arr, batches[k]), k+1
				}
			})
		}
	}
}
