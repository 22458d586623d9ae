package elasticmap

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"datanet/internal/records"
)

// topReference is Top by a full sort: every key with its total, ordered by
// bytes descending then key ascending, cut to n.
func topReference(totals map[string]int64, n int) []TopEntry {
	all := make([]TopEntry, 0, len(totals))
	for sub, b := range totals {
		all = append(all, TopEntry{Sub: sub, Bytes: b})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Sub < all[j].Sub
	})
	return all[:max(0, min(n, len(all)))]
}

// hashedTotals sums each key's exact sizes over the blocks' hash maps,
// without an index: the totals every index of a must hold.
func hashedTotals(a *Array) map[string]int64 {
	out := make(map[string]int64)
	for _, m := range a.metas {
		for sub, sz := range m.hash {
			out[sub] += sz
		}
	}
	return out
}

// tiedBlocks draws n blocks over a 60-key universe whose records are 8, 16
// or 24 bytes, so many keys share a dominant total and the key order
// decides between them.
func tiedBlocks(r *rand.Rand, n int) [][]records.Record {
	out := make([][]records.Record, n)
	for b := range out {
		for i := 0; i < 20+r.Intn(20); i++ {
			sub := fmt.Sprintf("t%02d", r.Intn(60))
			out[b] = append(out[b], records.Record{Sub: sub, Payload: strings.Repeat("p", 8*(1+r.Intn(3)))})
		}
	}
	return out
}

// Top's bounded selection returns exactly the full sort's prefix, for
// every n from negative to past the key count, on arrays built whole and
// on arrays whose index was extended by a Merge and then an Appended; the
// extended index equals a fresh NewIndex, totals included.
func TestTopMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ties := 0
	for trial := 0; trial < 30; trial++ {
		blocks := tiedBlocks(r, 6+r.Intn(10))
		head := Build(blocks[:2], lossyOpts())
		head.Index()
		chained := Merge(head, Build(blocks[2:4], lossyOpts())).Appended(blocks[4:])
		if !reflect.DeepEqual(flat(chained.Index()), flat(NewIndex(chained))) {
			t.Fatalf("trial %d: extended index differs from NewIndex", trial)
		}
		for name, arr := range map[string]*Array{"built": Build(blocks, lossyOpts()), "chained": chained} {
			totals := hashedTotals(arr)
			ix := arr.Index()
			entries := flat(ix)
			for sub, want := range totals {
				if got := entries[sub].total; got != want {
					t.Fatalf("trial %d %s: %s total %d, want %d", trial, name, sub, got, want)
				}
			}
			distinct := make(map[int64]bool)
			for _, b := range totals {
				distinct[b] = true
			}
			ties += len(totals) - len(distinct)
			k := len(totals)
			for _, n := range []int{-3, 0, 1, k - 1, k, k + 5, 1 << 20} {
				got, want := ix.Top(n), topReference(totals, n)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d %s: Top(%d) = %v, want %v", trial, name, n, got, want)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two keys tied: the key-order tie break went untested")
	}
}

// FuzzIndexTop: Top over arbitrary totals and any n equals the full sort.
// Byte i is block i: one hash entry, key k<high nibble> of size <low
// nibble>, so keys recur across blocks and most totals tie with another.
// The first half of the blocks is indexed whole and the rest appended one
// block at a time, so Top reads a base, an overlay and folds.
func FuzzIndexTop(f *testing.F) {
	f.Add([]byte{3, 1, 3, 0, 200, 7}, 2)
	f.Add([]byte{5, 5, 5, 5, 5}, 4)
	f.Add([]byte{}, 0)
	f.Add([]byte{9}, -1)
	f.Add([]byte{1, 2, 3}, 1<<20)
	f.Add([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0x12, 0x23, 0x34}, 5)
	f.Fuzz(func(t *testing.T, data []byte, n int) {
		metas := make([]*BlockMeta, len(data))
		totals := make(map[string]int64)
		for i, b := range data {
			sub := fmt.Sprintf("k%d", b>>4)
			metas[i] = &BlockMeta{hash: map[string]int64{sub: int64(b & 15)}}
			totals[sub] += int64(b & 15)
		}
		arr := FromMetas(metas[:len(metas)/2], Options{})
		arr.Index()
		for _, m := range metas[len(metas)/2:] {
			arr = Merge(arr, FromMetas([]*BlockMeta{m}, Options{}))
		}
		if got, want := arr.Index().Top(n), topReference(totals, n); !slices.Equal(got, want) {
			t.Fatalf("Top(%d) = %v, want %v", n, got, want)
		}
	})
}
