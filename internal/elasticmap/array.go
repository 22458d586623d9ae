package elasticmap

import (
	"slices"
	"sync"
	"sync/atomic"

	"datanet/internal/bloom"
	"datanet/internal/records"
)

// Array is the ElasticMap array of paper Fig. 3: one BlockMeta per block
// file, in block order. Querying it yields the (approximate) distribution
// of any sub-dataset over all blocks without touching raw data.
//
// An Array is immutable once published and is always handled by pointer:
// it owns its dominant-key Index, built at most once (idxOnce) or handed
// over already extended by Merge. The arrays of one Merge chain share
// metas' backing array: used counts the elements of it that some array
// lists (nil: metas is not shared that way, and Merge copies it).
type Array struct {
	metas   []*BlockMeta
	used    *atomic.Int64
	opts    Options
	idxOnce sync.Once
	idx     atomic.Pointer[Index]
}

// Build constructs the array from per-block record slices, scanning each
// block exactly once (overall O(records), the paper's single-scan claim).
func Build(blocks [][]records.Record, opts Options) *Array {
	metas := make([]*BlockMeta, len(blocks))
	for i, recs := range blocks {
		metas[i] = BuildBlockMeta(recs, opts)
	}
	return &Array{metas: metas, opts: opts.withDefaults()}
}

// FromMetas wraps pre-built metas (used by decoding and parallel builds).
func FromMetas(metas []*BlockMeta, opts Options) *Array {
	return &Array{metas: metas, opts: opts.withDefaults()}
}

// Len returns the number of blocks covered.
func (a *Array) Len() int { return len(a.metas) }

// Block returns the meta of block i.
func (a *Array) Block(i int) *BlockMeta { return a.metas[i] }

// Options returns the construction options.
func (a *Array) Options() Options { return a.opts }

// Index returns the array's inverted dominant-key index, building it on
// first use. Concurrent first callers share one build.
func (a *Array) Index() *Index {
	a.idxOnce.Do(func() {
		if a.idx.Load() == nil {
			a.idx.Store(NewIndex(a))
		}
	})
	return a.idx.Load()
}

// scanChunk is how many blocks one round of Bloom probes covers.
const scanChunk = 64

// scan is the one Eq.-6 pass every per-sub query folds over. It calls
// visit, in block order, for each block where sub is present: Hashed
// blocks come from the index's block-sorted entries for sub, and every
// other block is Bloomed when its filter passes a key digested once. The
// answers are exactly BlockMeta.Query's, block by block.
//
// The filters are tested scanChunk blocks at a time, in probe rounds:
// round 0 takes probe 0 of every block in the chunk, round i probe i of
// the blocks that passed round i−1, until none is left or none has a
// probe i. A block is kept by adding its bit to the write index, not by
// branching on it, so the probes of one round do not wait on each other.
// Each block still passes exactly when all its k probes do, as in
// TestKey; the survivors are then merged with the dominant entries, and
// a block listed there is Hashed whatever its filter says.
func (a *Array) scan(sub string, visit func(block int, size int64, class Class)) {
	dom := a.Index().blocks(sub)
	key := bloom.KeyOf(sub)
	var live [scanChunk]int32
	for lo := 0; lo < len(a.metas); lo += scanChunk {
		metas := a.metas[lo:min(lo+scanChunk, len(a.metas))]
		for _, j := range live[:passing(metas, key, &live)] {
			block := lo + int(j)
			for len(dom) > 0 && dom[0].Block < block {
				visit(dom[0].Block, dom[0].Size, Hashed)
				dom = dom[1:]
			}
			if len(dom) > 0 && dom[0].Block == block {
				visit(block, dom[0].Size, Hashed)
				dom = dom[1:]
			} else {
				visit(block, metas[j].delta, Bloomed)
			}
		}
		for end := lo + len(metas); len(dom) > 0 && dom[0].Block < end; dom = dom[1:] {
			visit(dom[0].Block, dom[0].Size, Hashed)
		}
	}
}

// passing writes into live, in order, the positions in metas (at most
// scanChunk of them) of the blocks whose filters pass key, and returns
// how many it wrote.
func passing(metas []*BlockMeta, key bloom.Key, live *[scanChunk]int32) int {
	n, k := 0, uint64(0)
	for j, m := range metas {
		bit := m.filter.Probe(key, 0)
		live[n] = int32(j)
		n += int(bit)
		k = max(k, bit*m.filter.K())
	}
	for i := uint64(1); n > 0 && i < k; i++ {
		kept, next := 0, uint64(0)
		for _, j := range live[:n] {
			f := metas[j].filter
			bit := f.Probe(key, i)
			live[kept] = j
			kept += int(bit)
			next = max(next, bit*f.K())
		}
		n, k = kept, next
	}
	return n
}

// BlockEstimate is one block's contribution to a sub-dataset.
type BlockEstimate struct {
	Block int
	Size  int64
	Class Class
}

// Distribution returns the estimated per-block sizes of sub, including
// only blocks where the meta-data reports presence. This powers both the
// scheduler's edge weights and the I/O-skipping optimization (§V-B: blocks
// with no record in hash map or Bloom filter need not be read at all).
func (a *Array) Distribution(sub string) []BlockEstimate {
	var out []BlockEstimate
	a.scan(sub, func(i int, size int64, class Class) {
		out = append(out, BlockEstimate{Block: i, Size: size, Class: class})
	})
	return out
}

// Weights returns the dense form of Distribution: sub's estimated size in
// every block, in block order, zero where the meta-data reports absence —
// the scheduler's weight vector.
func (a *Array) Weights(sub string) []int64 {
	w := make([]int64, len(a.metas))
	a.scan(sub, func(i int, size int64, _ Class) { w[i] = size })
	return w
}

// Estimate evaluates paper Eq. 6 for sub: the exact sizes of hash-resident
// blocks (τ1) plus δ per Bloom-resident block (τ2).
func (a *Array) Estimate(sub string) int64 {
	total, _, _ := a.EstimateDetailed(sub)
	return total
}

// EstimateDetailed also reports the τ1/τ2 split sizes.
func (a *Array) EstimateDetailed(sub string) (total int64, hashedBlocks, bloomedBlocks int) {
	a.scan(sub, func(_ int, size int64, class Class) {
		total += size
		if class == Hashed {
			hashedBlocks++
		} else {
			bloomedBlocks++
		}
	})
	return total, hashedBlocks, bloomedBlocks
}

// MemoryBits sums the actual meta-data footprint over all blocks.
func (a *Array) MemoryBits() int64 {
	var bits int64
	for _, m := range a.metas {
		bits += m.MemoryBits()
	}
	return bits
}

// RawBytes sums the represented raw data.
func (a *Array) RawBytes() int64 {
	var n int64
	for _, m := range a.metas {
		n += m.RawBytes()
	}
	return n
}

// RepresentationRatio is Table II's last column: bytes of raw data
// represented per byte of meta-data.
func (a *Array) RepresentationRatio() float64 {
	bits := a.MemoryBits()
	if bits == 0 {
		return 0
	}
	return float64(a.RawBytes()) / (float64(bits) / 8)
}

// MeanAlpha returns the realized hash share averaged over blocks, weighted
// by each block's sub-dataset count (Table II's first column).
func (a *Array) MeanAlpha() float64 {
	var hashed, total int
	for _, m := range a.metas {
		hashed += m.NumHashed()
		total += m.NumSubs()
	}
	if total == 0 {
		return 0
	}
	return float64(hashed) / float64(total)
}

// Subs returns the union of all sub-dataset keys recorded exactly (hash
// maps only; Bloom filters cannot be enumerated), sorted.
func (a *Array) Subs() []string {
	ix := a.Index()
	out := make([]string, 0, ix.subs)
	for sub := range ix.base.dominant {
		out = append(out, sub)
	}
	for sub := range ix.over {
		if _, ok := ix.base.dominant[sub]; !ok {
			out = append(out, sub)
		}
	}
	slices.Sort(out)
	return out
}

// OverallAccuracy computes the paper's χ (§V-B):
//
//	χ = 1 − |Σ_subs estimate(sub) − raw| / raw
//
// where raw is the total size of all records. It needs the ground-truth
// key universe because Bloom filters cannot be enumerated.
func (a *Array) OverallAccuracy(allSubs []string) float64 {
	raw := a.RawBytes()
	if raw == 0 {
		return 1
	}
	var est int64
	for _, sub := range allSubs {
		est += a.Estimate(sub)
	}
	diff := est - raw
	if diff < 0 {
		diff = -diff
	}
	chi := 1 - float64(diff)/float64(raw)
	if chi < 0 {
		chi = 0
	}
	return chi
}

// SubAccuracy returns the actual and estimated total size of one
// sub-dataset (Fig. 9's two series) given the ground truth.
func (a *Array) SubAccuracy(sub string, actual int64) (estimate int64, relError float64) {
	estimate = a.Estimate(sub)
	if actual == 0 {
		return estimate, 0
	}
	d := float64(estimate - actual)
	if d < 0 {
		d = -d
	}
	return estimate, d / float64(actual)
}
