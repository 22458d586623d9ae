package gen

import (
	"testing"

	"datanet/internal/records"
)

// genSink keeps the benchmarked logs alive so the calls are not removed.
var genSink []records.Record

// benchGen times gen at one size and reports records generated per second.
func benchGen(b *testing.B, gen func() []records.Record) {
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		genSink = gen()
		n += len(genSink)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "rec/s")
}

// d1Records is the size of D1, the suite's default review log (256 blocks
// of 256 KiB); the other generators are timed at it too, and at the size
// the suite makes them.
const d1Records = 220029

func BenchmarkMovies(b *testing.B) {
	b.Run("d1", func(b *testing.B) {
		benchGen(b, func() []records.Record {
			return Movies(MovieConfig{Movies: 2000, Reviews: d1Records, SpanDays: 365, Seed: 42})
		})
	})
	b.Run("suite-model-check", func(b *testing.B) {
		benchGen(b, func() []records.Record {
			return Movies(MovieConfig{Movies: 20000, Reviews: d1Records, SpanDays: 7, Seed: 99})
		})
	})
}

func BenchmarkEvents(b *testing.B) {
	b.Run("d1", func(b *testing.B) {
		benchGen(b, func() []records.Record { return Events(EventConfig{Events: d1Records, Seed: 42}) })
	})
	b.Run("suite", func(b *testing.B) {
		benchGen(b, func() []records.Record {
			return Events(EventConfig{Events: 256 << 10 * 128 / 271, SpanDays: 120, Seed: 7})
		})
	})
}

func BenchmarkWorldCup(b *testing.B) {
	b.Run("d1", func(b *testing.B) {
		benchGen(b, func() []records.Record { return WorldCup(WorldCupConfig{Requests: d1Records, Seed: 42}) })
	})
	b.Run("suite", func(b *testing.B) {
		benchGen(b, func() []records.Record {
			return WorldCup(WorldCupConfig{Requests: 256 << 10 * 128 / 215, Seed: 13})
		})
	})
}

// BenchmarkGammaBlocks times one trial of the suite's theory section
// (512 blocks of 64 KiB, ≈ 62 k records); its size is in bytes, so it has
// no D1 row.
func BenchmarkGammaBlocks(b *testing.B) {
	b.Run("suite", func(b *testing.B) {
		benchGen(b, func() []records.Record {
			return Flatten(GammaBlocks(GammaBlockConfig{Blocks: 512, BlockBytes: 64 << 10, TargetSub: "target", Shape: 1.2, Scale: 7, Seed: 1000}))
		})
	})
}
