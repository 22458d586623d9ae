package elasticmap

import (
	"cmp"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"

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
type Index struct {
	dominant map[string]dominantEntry
}

// dominantEntry is one key's hash-resident blocks, in block order, and the
// exact sum of their sizes. Both live in one map entry, so an extension
// clones one map.
type dominantEntry struct {
	blocks []BlockEstimate
	total  int64
}

// NewIndex builds a fresh inverted index in one pass over the hash maps.
// Array.Index returns the array's own, built once.
func NewIndex(arr *Array) *Index {
	return (&Index{}).extended(arr.metas, 0)
}

// extended returns ix with the dominant entries of metas added as blocks
// offset, offset+1, …, each key's total grown by their sizes; ix itself is
// unchanged. An inherited slice is
// extended through a full-slice expression, so the append reallocates
// instead of writing into ix's backing array — two extensions of one
// index never share storage.
func (ix *Index) extended(metas []*BlockMeta, offset int) *Index {
	lists := make(map[string][]BlockEstimate)
	for j, m := range metas {
		for sub, sz := range m.hash {
			lists[sub] = append(lists[sub], BlockEstimate{Block: offset + j, Size: sz, Class: Hashed})
		}
	}
	dominant := maps.Clone(ix.dominant)
	if dominant == nil {
		dominant = make(map[string]dominantEntry, len(lists))
	}
	for sub, add := range lists {
		e := dominant[sub]
		if len(e.blocks) == 0 {
			e.blocks = add
		} else {
			e.blocks = append(e.blocks[:len(e.blocks):len(e.blocks)], add...)
		}
		for _, be := range add {
			e.total += be.Size
		}
		dominant[sub] = e
	}
	return &Index{dominant: dominant}
}

// DominantSubs returns the number of distinct dominant keys indexed.
func (ix *Index) DominantSubs() int { return len(ix.dominant) }

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
// blocks. Ties break lexicographically for determinism. It keeps the n
// best keys seen so far in a heap whose root is the worst of them, so a
// call costs O(K log n) over K keys and sorts only the n it returns.
func (ix *Index) Top(n int) []TopEntry {
	n = max(0, min(n, len(ix.dominant)))
	h := make([]TopEntry, 0, n)
	if n == 0 {
		return h
	}
	for sub, e := range ix.dominant {
		c := TopEntry{Sub: sub, Bytes: e.total}
		if len(h) < n {
			h = append(h, c)
			siftUp(h, len(h)-1)
		} else if compareTop(c, h[0]) < 0 {
			h[0] = c
			siftDown(h, 0)
		}
	}
	slices.SortFunc(h, compareTop)
	return h
}

// siftUp and siftDown keep h a heap under compareTop reversed: every
// parent sorts after its children, so h[0] is the entry Top drops first.
func siftUp(h []TopEntry, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if compareTop(h[parent], h[i]) >= 0 {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []TopEntry, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && compareTop(h[c], h[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
