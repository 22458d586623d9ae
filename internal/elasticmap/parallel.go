package elasticmap

import (
	"cmp"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"datanet/internal/records"
)

// BuildParallel constructs the ElasticMap array scanning blocks
// concurrently with up to `workers` goroutines (GOMAXPROCS when
// workers <= 0). Each block's meta-data is independent, so the build
// parallelizes embarrassingly; results are identical to Build for the same
// inputs.
//
// This is the construction path datanet.BuildMeta takes: the single scan
// the paper counts (O(records) work) spread over the cores the process may
// use.
func BuildParallel(blocks [][]records.Record, opts Options, workers int) *Array {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	metas := make([]*BlockMeta, len(blocks))
	if workers <= 1 {
		for i, recs := range blocks {
			metas[i] = BuildBlockMeta(recs, opts)
		}
		return FromMetas(metas, opts)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				metas[i] = BuildBlockMeta(blocks[i], opts)
			}
		}()
	}
	for i := range blocks {
		next <- i
	}
	close(next)
	wg.Wait()
	return FromMetas(metas, opts)
}

// Appended returns a new array covering a's blocks followed by meta-data
// for newly written blocks, leaving a untouched — incremental maintenance
// as a log grows (new HDFS blocks are immutable once closed, so existing
// metas never change). BlockMeta values are immutable after construction,
// so the two arrays may safely share them across goroutines — this is the
// primitive the metadata service's snapshot store builds its epochs from.
func (a *Array) Appended(blocks [][]records.Record) *Array {
	metas := make([]*BlockMeta, len(blocks))
	for i, recs := range blocks {
		metas[i] = BuildBlockMeta(recs, a.opts)
	}
	return Merge(a, FromMetas(metas, a.opts))
}

// Merge concatenates two arrays built with compatible options (block order:
// a's blocks then b's). It returns a new array; inputs are unchanged. When
// a's index is already built, the merged array's index extends it with b's
// entries instead of being rebuilt from every block.
func Merge(a, b *Array) *Array {
	metas := make([]*BlockMeta, 0, len(a.metas)+len(b.metas))
	metas = append(metas, a.metas...)
	metas = append(metas, b.metas...)
	out := FromMetas(metas, a.opts)
	if ix := a.idx.Load(); ix != nil {
		out.idx.Store(ix.extended(b.metas, len(a.metas)))
	}
	return out
}

// Index is an inverted view of an Array: sub-dataset key → block estimates,
// for workloads that query many sub-datasets against the same array (the
// scheduler's per-job query path touches one key; interactive exploration
// touches thousands). Only hash-resident (dominant) entries can be
// inverted — Bloom filters are not enumerable — so Index answers Top, and
// the array's Eq.-6 scan probes Bloom filters only in the blocks the index
// does not list.
//
// An Index has two levels. The base is built once and shared read-only by
// every index extended from it. The overlay holds the entries of the keys
// that blocks appended since the base made dominant, and shadows their
// base entries. An extension copies the overlay, never the base, and
// folds the overlay into a new base once it holds more than
// 1/foldFraction as many keys as the base. What an Index lists never
// changes once it is returned.
type Index struct {
	base *indexBase
	over map[string]dominantEntry
	// rows is over's keys with their totals, in Top order.
	rows []TopEntry
	// subs counts the distinct keys of both levels.
	subs int
}

// foldFraction sets when an extension folds: once the overlay holds more
// than len(base keys)/foldFraction keys. A fold costs O(keys) and comes
// once per that many keys touched since the last one, so it adds
// O(foldFraction) per touched key, amortised, and the overlay an
// extension copies stays within 1/foldFraction of the base.
const foldFraction = 8

// indexBase is the shared level: every key's entry, and all keys in Top
// order, sorted on the first Top that needs them (a fold hands its order
// over).
type indexBase struct {
	dominant map[string]dominantEntry
	order    func() []TopEntry
}

// dominantEntry is one key's hash-resident blocks, in block order, and the
// exact sum of their sizes. Indexes of one chain share the backing array
// of blocks: used counts the elements of it that some index lists, and an
// extension appends in place only by claiming the next ones (nil: never in
// place, the list is copied first).
type dominantEntry struct {
	blocks []BlockEstimate
	used   *atomic.Int64
	total  int64
}

// appended returns e with be listed after its blocks. It writes into e's
// backing array only when no other index lists past e's end, and claims
// the element first; otherwise it copies e's blocks into a new array with
// room to grow. So an index never sees a block that another index's
// extension appended, and a chain of extensions costs O(1) per block,
// amortised.
func (e dominantEntry) appended(be BlockEstimate) dominantEntry {
	n := len(e.blocks)
	if n < cap(e.blocks) && e.used != nil && e.used.CompareAndSwap(int64(n), int64(n+1)) {
		e.blocks = append(e.blocks, be)
	} else {
		blocks := make([]BlockEstimate, n+1, 2*n+2)
		copy(blocks, e.blocks)
		blocks[n] = be
		e.blocks, e.used = blocks, new(atomic.Int64)
		e.used.Store(int64(n + 1))
	}
	e.total += be.Size
	return e
}

// NewIndex builds a fresh inverted index in one pass over the hash maps.
// Array.Index returns the array's own, built once.
func NewIndex(arr *Array) *Index {
	dominant := make(map[string]dominantEntry)
	for i, m := range arr.metas {
		for sub, sz := range m.hash {
			e := dominant[sub]
			e.blocks = append(e.blocks, BlockEstimate{Block: i, Size: sz, Class: Hashed})
			e.total += sz
			dominant[sub] = e
		}
	}
	return &Index{base: newBase(dominant, nil), subs: len(dominant)}
}

// newBase wraps a base level. order is its keys in Top order when the
// caller has them already; nil sorts them on first use.
func newBase(dominant map[string]dominantEntry, order []TopEntry) *indexBase {
	if order != nil {
		return &indexBase{dominant: dominant, order: func() []TopEntry { return order }}
	}
	return &indexBase{dominant: dominant, order: sync.OnceValue(func() []TopEntry {
		all := make([]TopEntry, 0, len(dominant))
		for sub, e := range dominant {
			all = append(all, TopEntry{Sub: sub, Bytes: e.total})
		}
		slices.SortFunc(all, compareTop)
		return all
	})}
}

// blocks returns sub's hash-resident blocks in block order. Without an
// overlay it costs one map probe.
func (ix *Index) blocks(sub string) []BlockEstimate {
	if len(ix.over) > 0 {
		if e, ok := ix.over[sub]; ok {
			return e.blocks
		}
	}
	return ix.base.dominant[sub].blocks
}

// extended returns ix with the dominant entries of metas added as blocks
// offset, offset+1, …; ix itself is unchanged. It copies the overlay,
// appends to each touched key's entry and sorts the overlay's rows.
func (ix *Index) extended(metas []*BlockMeta, offset int) *Index {
	over := maps.Clone(ix.over)
	if over == nil {
		over = make(map[string]dominantEntry)
	}
	subs := ix.subs
	for j, m := range metas {
		for sub, sz := range m.hash {
			e, ok := over[sub]
			if !ok {
				if e, ok = ix.base.dominant[sub]; !ok {
					subs++
				}
			}
			over[sub] = e.appended(BlockEstimate{Block: offset + j, Size: sz, Class: Hashed})
		}
	}
	rows := make([]TopEntry, 0, len(over))
	for sub, e := range over {
		rows = append(rows, TopEntry{Sub: sub, Bytes: e.total})
	}
	slices.SortFunc(rows, compareTop)
	next := &Index{base: ix.base, over: over, rows: rows, subs: subs}
	if len(over)*foldFraction <= len(ix.base.dominant) {
		return next
	}
	// Fold: the overlay's entries written over a copy of the base's, and
	// Top's full merge as the new base's order. O(keys).
	dominant := maps.Clone(ix.base.dominant)
	maps.Copy(dominant, over)
	return &Index{base: newBase(dominant, next.Top(subs)), subs: subs}
}

// DominantSubs returns the number of distinct dominant keys indexed.
func (ix *Index) DominantSubs() int { return ix.subs }

// TopEntry is one row of Top.
type TopEntry struct {
	Sub   string
	Bytes int64 // dominant (hash-resident) bytes
}

// compareTop is Top's order: bytes descending, ties by key ascending.
func compareTop(a, b TopEntry) int {
	if c := cmp.Compare(b.Bytes, a.Bytes); c != 0 {
		return c
	}
	return strings.Compare(a.Sub, b.Sub)
}

// Top returns the n largest sub-datasets by dominant volume — answering
// "what's big in this file?" from meta-data alone, without touching raw
// blocks. Ties break lexicographically for determinism. It merges two
// runs already in that order, the base's keys (passing over those the
// overlay shadows) and the overlay's rows, so a call costs O(n) plus the
// shadowed keys it passes.
func (ix *Index) Top(n int) []TopEntry {
	n = max(0, min(n, ix.subs))
	out := make([]TopEntry, 0, n)
	if n == 0 {
		return out
	}
	base, rows := ix.base.order(), ix.rows
	for len(out) < n {
		if len(base) > 0 {
			if _, shadowed := ix.over[base[0].Sub]; shadowed {
				base = base[1:]
				continue
			}
		}
		if len(rows) > 0 && (len(base) == 0 || compareTop(rows[0], base[0]) < 0) {
			out, rows = append(out, rows[0]), rows[1:]
		} else {
			out, base = append(out, base[0]), base[1:]
		}
	}
	return out
}
