package elasticmap

import (
	"math"
	"testing"

	"datanet/internal/records"
)

// FuzzDecodeNeverPanics: arbitrary bytes into the ElasticMap decoder must
// yield an array or an error, never a panic.
func FuzzDecodeNeverPanics(f *testing.F) {
	valid, _ := Encode(Build(twoBlockFixture(), fixtureOpts()))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("DNE1"))
	f.Add([]byte("nope"))
	f.Add([]byte{})
	f.Add(withFilterBlob(math.MaxUint64, 1, nil))
	f.Add(withFilterBlob(64, math.MaxUint64, []uint64{math.MaxUint64}))
	f.Fuzz(func(t *testing.T, data []byte) {
		arr, err := Decode(data)
		if err != nil {
			return
		}
		// A successfully decoded array must answer queries safely.
		for i := 0; i < arr.Len(); i++ {
			arr.Block(i).Query("probe")
		}
		arr.Estimate("probe")
		arr.Subs()
		arr.MemoryBits()
	})
}

// FuzzSeparator: arbitrary observation streams keep the bucket invariants.
func FuzzSeparator(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 5}, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, sizes []byte, target uint8) {
		sep := NewSeparator([]int64{0, 16, 64, 256})
		for i, s := range sizes {
			sep.Observe(string(rune('a'+i%7)), int64(s)+1)
		}
		sum := 0
		for _, c := range sep.counts {
			if c < 0 {
				t.Fatal("negative bucket count")
			}
			sum += c
		}
		if sum != sep.NumSubs() {
			t.Fatalf("bucket counts %d != subs %d", sum, sep.NumSubs())
		}
		th, _ := sep.ThresholdForCount(int(target))
		dom, non := sep.Split(th)
		if len(dom)+len(non) != sep.NumSubs() {
			t.Fatal("split lost sub-datasets")
		}
		if len(dom) > int(target) && int(target) > 0 {
			// Bucket-granular overshoot is only allowed when even the top
			// bucket exceeds the target (signaled by ok=false).
			if _, ok := sep.ThresholdForCount(int(target)); ok {
				t.Fatalf("hashed %d > target %d without overflow signal", len(dom), target)
			}
		}
	})
}

// FuzzBuildBlockMeta: arbitrary record shapes never lose a sub-dataset.
func FuzzBuildBlockMeta(f *testing.F) {
	f.Add(uint8(5), uint16(300), uint8(50))
	f.Fuzz(func(t *testing.T, nSubs uint8, payload uint16, alphaRaw uint8) {
		if nSubs == 0 {
			nSubs = 1
		}
		var recs []records.Record
		for i := 0; i < int(nSubs); i++ {
			recs = append(recs, records.Record{
				Sub:     string(rune('A' + i%26)),
				Payload: string(make([]byte, int(payload)%2000)),
			})
		}
		alpha := float64(alphaRaw%100+1) / 100
		meta := BuildBlockMeta(recs, Options{Alpha: alpha, BucketBounds: []int64{0, 64, 512, 4096}})
		for sub := range records.BySub(recs) {
			if _, class := meta.Query(sub); class == Absent {
				t.Fatalf("sub %q lost at alpha %g", sub, alpha)
			}
		}
	})
}
