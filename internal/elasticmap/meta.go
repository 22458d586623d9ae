package elasticmap

import (
	"math"

	"datanet/internal/bloom"
	"datanet/internal/records"
)

// Class says where a queried sub-dataset was found in a block's meta-data.
type Class int

// Query outcomes.
const (
	// Absent: the block holds no data of the sub-dataset (modulo the Bloom
	// filter's false-positive rate).
	Absent Class = iota
	// Bloomed: the sub-dataset is non-dominant in this block; only its
	// existence is recorded and its size approximated by Delta.
	Bloomed
	// Hashed: the sub-dataset is dominant in this block; its exact byte
	// count is stored.
	Hashed
)

func (c Class) String() string {
	switch c {
	case Hashed:
		return "hashed"
	case Bloomed:
		return "bloomed"
	default:
		return "absent"
	}
}

// Options configures ElasticMap construction.
type Options struct {
	// Alpha is the target fraction of a block's sub-datasets stored in the
	// hash map (paper Eq. 5; experiments sweep 0.1–1.0, default 0.3 as in
	// §V-A). Ignored when MemoryBudgetBits > 0.
	Alpha float64
	// MemoryBudgetBits, when positive, picks the largest hash-map share
	// whose Eq.-5 cost fits the budget ("store all the meta-data into the
	// hash map when the memory is large enough and most of the information
	// into the bloom filter when the memory is limited").
	MemoryBudgetBits int64
	// FPRate is the Bloom filter's false-positive target ε (default 0.01,
	// ≈10 bits/item as quoted in the paper).
	FPRate float64
	// HashEntryBits is the per-entry hash map cost k in Eq. 5 (default 85
	// bits, the paper's "typical configuration").
	HashEntryBits int
	// LoadFactor is the hash map load factor δ in Eq. 5 (default 0.75).
	LoadFactor float64
	// BucketBounds overrides the Fibonacci bucket lower bounds (ablation
	// hook); nil uses FibonacciBounds(block size or 64 MiB).
	BucketBounds []int64
}

// DefaultAlpha matches the paper's evaluation setting (§V-A: α = 0.3).
const DefaultAlpha = 0.3

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Alpha > 1 {
		o.Alpha = 1
	}
	if o.FPRate <= 0 || o.FPRate >= 1 {
		o.FPRate = 0.01
	}
	if o.HashEntryBits <= 0 {
		o.HashEntryBits = 85
	}
	if o.LoadFactor <= 0 || o.LoadFactor > 1 {
		o.LoadFactor = 0.75
	}
	return o
}

// CostBits evaluates paper Eq. 5 for m sub-datasets at hash share alpha:
// m·(1−α)·(−ln ε)/ln²2 + m·α·k/δ.
func (o Options) CostBits(m int, alpha float64) float64 {
	o = o.withDefaults()
	fm := float64(m)
	return fm*(1-alpha)*bloom.BitsPerItem(o.FPRate) + fm*alpha*float64(o.HashEntryBits)/o.LoadFactor
}

// alphaForBudget inverts Eq. 5: the largest α in [0,1] whose cost fits the
// budget, or 0 when even a pure-Bloom layout does not fit.
func (o Options) alphaForBudget(m int) float64 {
	o = o.withDefaults()
	if m == 0 {
		return 1
	}
	budget := float64(o.MemoryBudgetBits)
	bloomBits := bloom.BitsPerItem(o.FPRate)
	hashBits := float64(o.HashEntryBits) / o.LoadFactor
	// cost(α) = m·bloomBits + m·α·(hashBits − bloomBits); solve for α.
	base := float64(m) * bloomBits
	slope := float64(m) * (hashBits - bloomBits)
	if slope <= 0 {
		return 1
	}
	alpha := (budget - base) / slope
	if alpha < 0 {
		return 0
	}
	if alpha > 1 {
		return 1
	}
	return alpha
}

// BlockMeta is one block's ElasticMap: exact sizes for dominant
// sub-datasets, Bloom-filtered existence for the rest.
type BlockMeta struct {
	hash   map[string]int64
	filter *bloom.Filter
	// delta is the Eq.-6 δ: the approximate per-block size attributed to a
	// Bloom-resident sub-dataset (the smallest size value seen among them,
	// falling back to the smallest hashed size when the filter is empty).
	delta int64
	// rawBytes is the block's total record footprint.
	rawBytes int64
	// numSubs and numHashed record the split for memory accounting.
	numSubs   int
	numHashed int
	// threshold is the dominance cut actually applied (bytes).
	threshold int64
	opts      Options
}

// BuildBlockMeta scans one block's records once and constructs its
// ElasticMap. This is the paper's Algorithm of §III-B: bucket statistics
// during the scan, then a threshold chosen from the bucket counts (no
// sort), then a split into hash map and Bloom filter.
func BuildBlockMeta(recs []records.Record, opts Options) *BlockMeta {
	return ScanBlock(recs, opts.BucketBounds).Meta(opts)
}

// BlockScan is one block's single pass: the separator's final per-key
// sizes and bucket counts, and the block's raw byte count. The bucket
// counts, threshold, dominant map, Bloom bits and δ of an ElasticMap are
// all functions of the final per-key sizes, so Meta separates the block
// under any α, memory budget, false-positive rate or bucket shape without
// reading a record again. A BlockScan is immutable once made: any number
// of goroutines may call its methods.
type BlockScan struct {
	sep *Separator
	raw int64
}

// ScanBlock scans recs once under the given bucket lower bounds (nil:
// FibonacciBounds(64 MiB)).
func ScanBlock(recs []records.Record, bounds []int64) *BlockScan {
	sep := NewSeparator(bounds)
	var raw int64
	for _, r := range recs {
		sz := r.Size()
		raw += sz
		sep.Observe(r.Sub, sz)
	}
	// The scan is over: only the final sizes and bucket counts are read.
	sep.bucketOf = nil
	return &BlockScan{sep: sep, raw: raw}
}

// Meta separates the scanned block into its ElasticMap under opts: the
// meta-data BuildBlockMeta(recs, opts) builds from the same records.
func (s *BlockScan) Meta(opts Options) *BlockMeta {
	opts = opts.withDefaults()
	return buildFromSeparator(s.sep.rebucketed(opts.BucketBounds), s.raw, opts)
}

// Sizes returns the block's byte count per sub-dataset key, |b ∩ s| for
// every s in the block: the ground truth records.BySub computes. The map
// is the scan's own; callers only read it.
func (s *BlockScan) Sizes() map[string]int64 { return s.sep.sizes }

// FromScans separates every block's scan under opts, in block order: the
// array Build makes from the scanned blocks' records.
func FromScans(scans []*BlockScan, opts Options) *Array {
	metas := make([]*BlockMeta, len(scans))
	for i, s := range scans {
		metas[i] = s.Meta(opts)
	}
	return FromMetas(metas, opts)
}

func buildFromSeparator(sep *Separator, rawBytes int64, opts Options) *BlockMeta {
	m := sep.NumSubs()
	alpha := opts.Alpha
	if opts.MemoryBudgetBits > 0 {
		alpha = opts.alphaForBudget(m)
	}
	threshold, _ := sep.ThresholdForFraction(alpha)
	dom, non := sep.Split(threshold)

	meta := &BlockMeta{
		hash:      dom,
		rawBytes:  rawBytes,
		numSubs:   m,
		numHashed: len(dom),
		threshold: threshold,
		opts:      opts,
	}
	nBloom := len(non)
	if nBloom == 0 {
		nBloom = 1 // allocate a minimal filter so queries are uniform
	}
	meta.filter = bloom.NewWithEstimates(uint64(nBloom), opts.FPRate)
	minNon := int64(math.MaxInt64)
	for sub, sz := range non {
		meta.filter.AddString(sub)
		if sz < minNon {
			minNon = sz
		}
	}
	if len(non) == 0 {
		// δ falls back to the smallest hashed size, as in Eq. 6's
		// definition ("the smallest size value of |s ∩ b_j|").
		for _, sz := range dom {
			if sz < minNon {
				minNon = sz
			}
		}
	}
	if minNon == math.MaxInt64 {
		minNon = 0
	}
	meta.delta = minNon
	return meta
}

// Query returns the recorded size and classification of sub in this block.
// For Bloomed results the size is the δ approximation.
func (b *BlockMeta) Query(sub string) (int64, Class) {
	if sz, ok := b.hash[sub]; ok {
		return sz, Hashed
	}
	if b.filter.TestString(sub) {
		return b.delta, Bloomed
	}
	return 0, Absent
}

// RawBytes returns the block's total record footprint.
func (b *BlockMeta) RawBytes() int64 { return b.rawBytes }

// NumSubs returns the number of distinct sub-datasets in the block.
func (b *BlockMeta) NumSubs() int { return b.numSubs }

// NumHashed returns how many sub-datasets were classified dominant.
func (b *BlockMeta) NumHashed() int { return b.numHashed }

// HashedAlpha returns the realized hash-map share.
func (b *BlockMeta) HashedAlpha() float64 {
	if b.numSubs == 0 {
		return 0
	}
	return float64(b.numHashed) / float64(b.numSubs)
}

// MemoryBits returns the actual meta-data footprint: Bloom bitmap size
// plus hash entries at the configured per-entry cost and load factor.
func (b *BlockMeta) MemoryBits() int64 {
	opts := b.opts.withDefaults()
	hashBits := int64(float64(b.numHashed) * float64(opts.HashEntryBits) / opts.LoadFactor)
	return hashBits + int64(b.filter.SizeBits())
}
