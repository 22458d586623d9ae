package elasticmap

// Heat export for placement: the rebalancer (internal/hdfs, driven by
// internal/placement optimizers) scores blocks by how concentrated the
// queried sub-dataset is in each block — exactly the per-block knowledge
// ElasticMap maintains and raw HDFS lacks. Hot blocks (high concentration
// of the sub-dataset a workload keeps querying) attract extra replicas;
// cold blocks are left alone.

// Concentration returns the fraction of the block's bytes attributed to
// sub by the meta-data: exact for hash-resident (dominant) sub-datasets,
// the δ approximation for Bloom-resident ones, 0 when absent. The result
// is clamped to [0, 1].
func (b *BlockMeta) Concentration(sub string) float64 {
	sz, class := b.Query(sub)
	if class == Absent {
		return 0
	}
	return b.concentration(sz)
}

// concentration is size's share of the block's bytes, capped at 1.
func (b *BlockMeta) concentration(size int64) float64 {
	if b.rawBytes <= 0 {
		return 0
	}
	return min(float64(size)/float64(b.rawBytes), 1)
}

// DominantConcentration returns the largest hash-resident concentration
// in the block — how strongly the block is dominated by any single
// sub-dataset. Blocks near 1 are content-clustered; blocks near 0 are
// well mixed and gain little from extra replicas.
func (b *BlockMeta) DominantConcentration() float64 {
	if b.rawBytes <= 0 {
		return 0
	}
	var max int64
	for _, sz := range b.hash {
		if sz > max {
			max = sz
		}
	}
	c := float64(max) / float64(b.rawBytes)
	if c > 1 {
		c = 1
	}
	return c
}

// HeatProfile returns the per-block concentration of sub over the whole
// array, in block order (length Len()). Scaled by observed access counts
// this is the heat signal placement.BlockInfo consumes.
func (a *Array) HeatProfile(sub string) []float64 {
	out := make([]float64, len(a.metas))
	a.scan(sub, func(i int, size int64, _ Class) { out[i] = a.metas[i].concentration(size) })
	return out
}
