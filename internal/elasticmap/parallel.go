package elasticmap

import (
	"maps"
	"runtime"
	"sort"
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
// inverted — Bloom filters are not enumerable — so Index answers
// EstimateDominant and Top, and the array's Eq.-6 scan probes Bloom
// filters only in the blocks the index does not list.
type Index struct {
	dominant map[string][]BlockEstimate
}

// NewIndex builds a fresh inverted index in one pass over the hash maps.
// Array.Index returns the array's own, built once.
func NewIndex(arr *Array) *Index {
	return (&Index{}).extended(arr.metas, 0)
}

// extended returns ix with the dominant entries of metas added as blocks
// offset, offset+1, …; ix itself is unchanged. An inherited slice is
// extended through a full-slice expression, so the append reallocates
// instead of writing into ix's backing array — two extensions of one
// index never share storage.
func (ix *Index) extended(metas []*BlockMeta, offset int) *Index {
	fresh := make(map[string][]BlockEstimate)
	for j, m := range metas {
		for sub, sz := range m.hash {
			fresh[sub] = append(fresh[sub], BlockEstimate{Block: offset + j, Size: sz, Class: Hashed})
		}
	}
	if len(ix.dominant) == 0 {
		return &Index{dominant: fresh}
	}
	dominant := maps.Clone(ix.dominant)
	for sub, add := range fresh {
		prev := dominant[sub]
		dominant[sub] = append(prev[:len(prev):len(prev)], add...)
	}
	return &Index{dominant: dominant}
}

// DominantSubs returns the number of distinct dominant keys indexed.
func (ix *Index) DominantSubs() int { return len(ix.dominant) }

// EstimateDominant sums the exactly-recorded sizes of sub (a lower bound
// of the Eq.-6 estimate that skips Bloom probing entirely).
func (ix *Index) EstimateDominant(sub string) int64 {
	var t int64
	for _, be := range ix.dominant[sub] {
		t += be.Size
	}
	return t
}

// TopEntry is one row of Top.
type TopEntry struct {
	Sub   string
	Bytes int64 // dominant (hash-resident) bytes
}

// Top returns the n largest sub-datasets by dominant volume — answering
// "what's big in this file?" from meta-data alone, without touching raw
// blocks. Ties break lexicographically for determinism.
func (ix *Index) Top(n int) []TopEntry {
	entries := make([]TopEntry, 0, len(ix.dominant))
	for sub := range ix.dominant {
		entries = append(entries, TopEntry{Sub: sub, Bytes: ix.EstimateDominant(sub)})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Bytes != entries[j].Bytes {
			return entries[i].Bytes > entries[j].Bytes
		}
		return entries[i].Sub < entries[j].Sub
	})
	if n > len(entries) {
		n = len(entries)
	}
	if n < 0 {
		n = 0
	}
	return entries[:n]
}
