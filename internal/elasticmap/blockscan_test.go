package elasticmap

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"datanet/internal/records"
)

// skewedBlocks draws n blocks of ~300 records over an 80-key universe with
// exponentially skewed key frequencies, so per-key totals span from a few
// hundred bytes to several KiB and every bucket shape below cuts them
// differently.
func skewedBlocks(r *rand.Rand, n int) [][]records.Record {
	out := make([][]records.Record, n)
	for b := range out {
		for i := 0; i < 300; i++ {
			k := int(r.ExpFloat64()*8) % 80
			out[b] = append(out[b], records.Record{Sub: fmt.Sprintf("k%02d", k), Payload: strings.Repeat("p", 20+r.Intn(400))})
		}
	}
	return out
}

// One scan per block, made under Fibonacci bounds, separates under any
// other α, memory budget, false-positive rate or bucket shape into the
// array a fresh BuildBlockMeta makes from the records under those options,
// byte for byte: the contract every sweep that scans once relies on.
func TestScanSeparatesLikeAFreshBuild(t *testing.T) {
	const bs = 64 << 10
	blocks := skewedBlocks(rand.New(rand.NewSource(7)), 12)
	fib := FibonacciBoundsUnit(bs, 64)
	scans := make([]*BlockScan, len(blocks))
	for i, b := range blocks {
		scans[i] = ScanBlock(b, fib)
		if !maps.Equal(scans[i].Sizes(), records.BySub(b)) {
			t.Fatalf("block %d: scan sizes differ from records.BySub", i)
		}
	}
	base := Options{Alpha: 0.3, BucketBounds: fib}
	type variant struct {
		name string
		opts Options
	}
	with := func(name string, edit func(*Options)) variant {
		o := base
		edit(&o)
		return variant{name, o}
	}
	variants := []variant{
		with("power-of-two", func(o *Options) { o.BucketBounds = PowerOfTwoBounds(bs) }),
		with("uniform-16", func(o *Options) { o.BucketBounds = UniformBounds(bs, 16) }),
		with("uniform-64", func(o *Options) { o.BucketBounds = UniformBounds(bs, 64) }),
		with("budget", func(o *Options) { o.MemoryBudgetBits = 3000 }),
		with("fp-0.05", func(o *Options) { o.FPRate = 0.05 }),
		with("fp-0.001", func(o *Options) { o.FPRate = 0.001 }),
	}
	for a := 1; a <= 10; a++ {
		variants = append(variants, with(fmt.Sprintf("alpha-%.1f", float64(a)/10), func(o *Options) { o.Alpha = float64(a) / 10 }))
	}
	// The base options last: separating under other options first must
	// not have changed the scan.
	variants = append(variants, variant{"base", base})

	encode := func(a *Array) []byte {
		t.Helper()
		b, err := Encode(a)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	baseBytes := encode(Build(blocks, base))
	for _, v := range variants {
		want := encode(Build(blocks, v.opts))
		if got := encode(FromScans(scans, v.opts)); !bytes.Equal(got, want) {
			t.Errorf("%s: the separated scan encodes to %d bytes that differ from a fresh build's %d", v.name, len(got), len(want))
		}
		if v.name != "base" && v.name != "alpha-0.3" && bytes.Equal(want, baseBytes) {
			t.Errorf("%s: the fixture separates exactly as the base options do, so the case checks nothing", v.name)
		}
	}
}
