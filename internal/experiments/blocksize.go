package experiments

import (
	"fmt"

	"datanet/internal/metrics"
)

// BlockSize sweeps the HDFS block size at a fixed dataset volume (default
// 64 KiB – 1 MiB) — the deployment parameter the paper fixes at 64 MB.
// Bigger blocks mean fewer, chunkier tasks: baseline imbalance worsens (one
// block carries a bigger slice of the sub-dataset) while DataNet's packing
// gets harder (coarser items); smaller blocks raise per-task overhead and
// meta-data volume. The sweep shows where the trade-off lives. The
// max-block share is the largest block's fraction of the target
// sub-dataset — the granularity Algorithm 1 must pack with.
func BlockSize(sizes []int64, p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	if len(sizes) == 0 {
		sizes = []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	totalBytes := p.BlockBytes * int64(p.Blocks)
	r := newReport()
	t := metrics.NewTable("Extension — sensitivity to the HDFS block size (fixed data volume)",
		"block size", "blocks", "max-block share", "baseline max/avg", "datanet max/avg", "TopK improvement", "meta-data")
	for _, bs := range sizes {
		q := p
		q.BlockBytes = bs
		q.Blocks = int(totalBytes / bs)
		env, err := NewMovieEnv(q)
		if err != nil {
			return nil, err
		}
		c, err := env.compare(movieTopK())
		if err != nil {
			return nil, err
		}
		var total, largest int64
		for _, b := range env.BlockTruth {
			total += b
			largest = max(largest, b)
		}
		share := 0.0
		if total > 0 {
			share = float64(largest) / float64(total)
		}
		key := metricsBytes(bs)
		without, with, gain := r.balanceCells(key, env, c)
		t.Add(metrics.Bytes(bs), fmt.Sprint(env.Array.Len()), metrics.Pct(share),
			without, with, gain, metrics.Bytes(env.Array.MemoryBits()/8))
		r.Values[key+"/blocks"] = float64(env.Array.Len())
		r.Values[key+"/max_block_share"] = share
	}
	r.table(t)
	r.linef("  (coarser blocks concentrate the sub-dataset into fewer, heavier tasks — harder for any scheduler to pack)")
	return r, nil
}
