package gen

import (
	"fmt"
	"math/rand"

	"datanet/internal/records"
	"datanet/internal/stats"
)

// GammaBlockConfig drives the theory-validation generator: it materializes
// the paper's §II-B model directly, giving each block an amount of the
// target sub-dataset drawn from Γ(k, θ) (in kilobytes) and filling the rest
// of the block with background records.
type GammaBlockConfig struct {
	// Blocks is the number of blocks to emit.
	Blocks int
	// BlockBytes is the capacity of one block.
	BlockBytes int64
	// TargetSub is the sub-dataset key of interest.
	TargetSub string
	// Shape and Scale are the Γ(k, θ) parameters for the target's per-block
	// kilobytes (paper Fig. 2 uses k=1.2, θ=7).
	Shape, Scale float64
	// BackgroundSubs is the number of distinct background sub-datasets.
	BackgroundSubs int
	// RecordBytes is the approximate size of one record.
	RecordBytes int
	// Seed makes generation reproducible.
	Seed int64
}

func (c GammaBlockConfig) withDefaults() GammaBlockConfig {
	if c.Blocks <= 0 {
		c.Blocks = 128
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 1 << 20
	}
	if c.TargetSub == "" {
		c.TargetSub = "target"
	}
	if c.Shape <= 0 {
		c.Shape = 1.2
	}
	if c.Scale <= 0 {
		c.Scale = 7
	}
	if c.BackgroundSubs <= 0 {
		c.BackgroundSubs = 50
	}
	if c.RecordBytes <= 0 {
		c.RecordBytes = 512
	}
	return c
}

// GammaBlocks returns one record slice per block. Feed each slice to
// hdfs.FileSystem.Write via a concatenation with matching block size, or
// use the slices directly in unit tests. The payloads share arena chunks
// of up to 1 MiB, as Movies' do.
func GammaBlocks(cfg GammaBlockConfig) [][]records.Record {
	cfg = cfg.withDefaults()
	src := rand.NewSource(cfg.Seed)
	rng := rand.New(src)
	g := stats.Gamma{K: cfg.Shape, Theta: cfg.Scale}
	letters, payloads := make([]byte, cfg.RecordBytes), newArena(cfg.Blocks*int(cfg.BlockBytes))
	payload := func() string {
		for i := range letters {
			letters[i] = byte('a' + intn(src, 26))
		}
		return payloads.cut(letters)
	}
	// A background key is formatted on its first record and shared by the
	// rest.
	background := make([]string, cfg.BackgroundSubs)
	out := make([][]records.Record, cfg.Blocks)
	for bi := range out {
		targetKB := g.Sample(rng)
		targetBytes := int64(targetKB * 1024)
		if targetBytes > cfg.BlockBytes {
			targetBytes = cfg.BlockBytes
		}
		var blk []records.Record
		var used int64
		for used < targetBytes {
			r := records.Record{
				Sub:     cfg.TargetSub,
				Time:    int64(bi),
				Rating:  1,
				Payload: payload(),
			}
			blk = append(blk, r)
			used += r.Size()
		}
		for used < cfg.BlockBytes {
			k := rng.Intn(cfg.BackgroundSubs)
			if background[k] == "" {
				background[k] = fmt.Sprintf("bg-%04d", k)
			}
			r := records.Record{
				Sub:     background[k],
				Time:    int64(bi),
				Rating:  1,
				Payload: payload(),
			}
			if used+r.Size() > cfg.BlockBytes {
				break
			}
			blk = append(blk, r)
			used += r.Size()
		}
		out[bi] = blk
	}
	return out
}

// Flatten concatenates per-block record slices into one stream.
func Flatten(blocks [][]records.Record) []records.Record {
	var n int
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]records.Record, 0, n)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}
