package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"

	"datanet"
	"datanet/internal/bloom"
	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
)

// metaAlpha is the paper's evaluation setting (§V-A).
const metaAlpha = 0.3

// timeMedian runs f reps times and returns the median wall time in seconds.
func timeMedian(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		f()
		xs[i] = time.Since(start).Seconds()
	}
	return median(xs)
}

// mb converts a byte count to MB (2^20 bytes).
func mb(n int64) float64 { return float64(n) / (1 << 20) }

// encodeRecords renders recs in the .dnr wire format cmd/datagen writes.
func encodeRecords(recs []records.Record) ([]byte, error) {
	var buf bytes.Buffer
	w := records.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// distinctSubs lists the ground-truth key universe of recs, sorted.
func distinctSubs(recs []records.Record) []string {
	seen := map[string]struct{}{}
	for _, r := range recs {
		seen[r.Sub] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// buildStages names the pipeline stages of one build pass, in order; a
// pass's opMs slice has one entry per stage.
var buildStages = []struct{ name, layer string }{
	{"records.decode", "records"},
	{"hdfs.write", "hdfs"},
	{"elasticmap.build", "elasticmap"},
	{"elasticmap.encode", "elasticmap"},
	{"elasticmap.decode", "elasticmap"},
}

// buildInst is the `datanet build` pipeline over D1 in wire form.
type buildInst struct {
	seed int64
	sz   sizes
	wire []byte   // D1 as a .dnr stream: the pipeline's input
	subs []string // ground-truth key universe, for χ
	raw  int64    // D1's record footprint in bytes
	// estimateSum is Σ Estimate(sub) of the first pass; later passes must
	// repeat it.
	estimateSum int64

	// artifacts of the latest pass, for layers()
	fs      *hdfs.FileSystem
	meta    *datanet.Meta
	encoded []byte
}

func setupBuild(seed int64, sz sizes) (instance, error) {
	recs := genD1(seed, sz)
	wire, err := encodeRecords(recs)
	if err != nil {
		return nil, fmt.Errorf("encoding D1: %w", err)
	}
	return &buildInst{seed: seed, sz: sz, wire: wire, subs: distinctSubs(recs), raw: records.TotalSize(recs)}, nil
}

func (b *buildInst) prepare() error { return nil }
func (b *buildInst) close()         {}

func (b *buildInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{}
	var stageErr error
	// stage times one pipeline stage; f returns the bytes it handled.
	stage := func(i int, f func() (int64, error)) {
		if stageErr != nil {
			return
		}
		id := tr.begin(buildStages[i].name, buildStages[i].layer)
		start := time.Now()
		var count int64
		count, stageErr = f()
		p.opMs = append(p.opMs, float64(time.Since(start).Nanoseconds())/1e6)
		tr.end(id, count)
		p.attempted++
	}

	var recs []records.Record
	stage(0, func() (_ int64, err error) {
		recs, err = records.NewReader(bytes.NewReader(b.wire)).ReadAll()
		return int64(len(b.wire)), err
	})
	stage(1, func() (_ int64, err error) {
		b.fs, err = writeFS(recs, b.sz.ANodes, b.sz.ARacks, b.sz.ABlock, b.seed)
		return b.raw, err
	})
	stage(2, func() (_ int64, err error) {
		b.meta, err = datanet.BuildMeta(b.fs, fileName, datanet.MetaOptions{Alpha: metaAlpha})
		return b.raw, err
	})
	stage(3, func() (_ int64, err error) {
		b.encoded, err = b.meta.Encode()
		return int64(len(b.encoded)), err
	})
	var decoded *datanet.Meta
	stage(4, func() (_ int64, err error) {
		decoded, err = datanet.DecodeMeta(b.encoded, fileName)
		return int64(len(b.encoded)), err
	})
	if stageErr != nil {
		return nil, stageErr
	}

	// The round trip must answer every sub-dataset's Eq. 6 estimate
	// identically, and the estimates' sum — χ's numerator — must not move
	// between passes. It runs outside the timed region: it costs more than
	// the pipeline.
	p.verify = func() {
		p.attempted++
		var sum int64
		for _, sub := range b.subs {
			want := b.meta.Estimate(sub)
			if got := decoded.Estimate(sub); got != want {
				p.fail("Decode(Encode(arr)).Estimate(%s) = %d, built array says %d", sub, got, want)
				return
			}
			sum += want
		}
		if b.estimateSum == 0 {
			b.estimateSum = sum
		} else if sum != b.estimateSum {
			p.fail("elasticmap.chi moved between passes: estimates summed to %d, then %d", b.estimateSum, sum)
		}
	}
	return p, nil
}

func (b *buildInst) layers(lc *layerCtx) error {
	// Stage throughputs come from the passes themselves: the median stage
	// wall over the timed passes and the traced one.
	stageS := func(i int) float64 {
		var xs []float64
		for _, p := range lc.passes {
			xs = append(xs, p.opMs[i]/1e3)
		}
		return median(xs)
	}
	lc.set("records.decode_mb_per_s", mb(int64(len(b.wire)))/stageS(0))
	lc.set("hdfs.write_mb_per_s", mb(b.raw)/stageS(1))
	lc.set("elasticmap.build_mb_per_s", mb(b.raw)/stageS(2))
	lc.set("elasticmap.encode_mb_per_s", mb(int64(len(b.encoded)))/stageS(3))
	lc.set("elasticmap.decode_mb_per_s", mb(int64(len(b.encoded)))/stageS(4))

	arr := b.meta.Array()
	lc.set("elasticmap.meta_bytes_per_raw_kb", float64(arr.MemoryBits()/8)/(float64(arr.RawBytes())/1024))
	lc.set("elasticmap.chi", arr.OverallAccuracy(b.subs))

	// Isolation measurements of single public calls.
	s := timeMedian(3, func() {
		gen.Movies(gen.MovieConfig{Movies: b.sz.Movies, Reviews: b.sz.GenRecords, SpanDays: 365, Seed: b.seed})
	})
	lc.set("gen.movies_rec_per_s", float64(b.sz.GenRecords)/s)
	s = timeMedian(3, func() { gen.Events(gen.EventConfig{Events: b.sz.GenRecords, Seed: b.seed}) })
	lc.set("gen.events_rec_per_s", float64(b.sz.GenRecords)/s)

	blocks, err := blockRecords(b.fs)
	if err != nil {
		return err
	}
	var recs []records.Record
	for _, blk := range blocks {
		recs = append(recs, blk...)
	}
	var encErr error
	s = timeMedian(3, func() { _, encErr = encodeRecords(recs) })
	if encErr != nil {
		return encErr
	}
	lc.set("records.encode_mb_per_s", mb(int64(len(b.wire)))/s)

	s = timeMedian(5, func() { _, err = b.fs.SubDistribution(fileName, gen.MovieID(0)) })
	if err != nil {
		return err
	}
	lc.set("hdfs.subdist_ms", s*1e3)

	opts := arr.Options()
	seq := timeMedian(3, func() { elasticmap.Build(blocks, opts) })
	par := timeMedian(3, func() { elasticmap.BuildParallel(blocks, opts, 2) })
	lc.set("elasticmap.build_par2_mb_per_s", mb(b.raw)/par)
	lc.set("elasticmap.build_par2_speedup", seq/par)
	s = timeMedian(3, func() {
		for _, blk := range blocks {
			sep := elasticmap.NewSeparator(opts.BucketBounds)
			for _, r := range blk {
				sep.Observe(r.Sub, r.Size())
			}
		}
	})
	lc.set("elasticmap.separator_ns_per_rec", s*1e9/float64(len(recs)))
	perBlock := make([]float64, len(blocks))
	for i, blk := range blocks {
		start := time.Now()
		elasticmap.BuildBlockMeta(blk, opts)
		perBlock[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	lc.setSamples("elasticmap.block_meta_us", perBlock)

	// Bloom filter sized as ElasticMap sizes it (ε = 0.01): insert n keys,
	// probe them and n keys never inserted. The false-positive share is a
	// count, so it repeats exactly.
	n := b.sz.BloomKeys
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = []byte("key-" + strconv.Itoa(i))
	}
	f := bloom.NewWithEstimates(uint64(n), 0.01)
	s = timeMedian(1, func() {
		for _, k := range keys[:n] {
			f.Add(k)
		}
	})
	lc.set("bloom.add_ns", s*1e9/float64(n))
	falsePositives := 0
	s = timeMedian(1, func() {
		for i, k := range keys {
			if f.Test(k) && i >= n {
				falsePositives++
			}
		}
	})
	lc.set("bloom.test_ns", s*1e9/float64(2*n))
	lc.set("bloom.fp_share", float64(falsePositives)/float64(n))
	return nil
}
