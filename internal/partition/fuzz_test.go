package partition

import (
	"encoding/binary"
	"testing"
)

// freqsFromBytes decodes an arbitrary byte stream into a key-frequency
// map: repeating 4-byte windows become (2-byte key, 16-bit frequency)
// pairs, accumulated. Any input decodes to something, so the fuzzer owns
// the whole instance space including duplicate keys, zero frequencies and
// single-key maps.
func freqsFromBytes(data []byte) map[string]int64 {
	freqs := make(map[string]int64)
	for i := 0; i+4 <= len(data); i += 4 {
		key := string(data[i : i+2])
		freqs[key] += int64(binary.LittleEndian.Uint16(data[i+2 : i+4]))
	}
	return freqs
}

// FuzzPartitionPlan: arbitrary key-frequency maps and reducer counts must
// yield total, disjoint, non-empty-where-possible assignments from every
// strategy — and must never panic. Runs in CI with a 30s budget next to
// the other fuzz targets.
func FuzzPartitionPlan(f *testing.F) {
	f.Add([]byte{}, uint8(1), int64(0))
	f.Add([]byte("aa\x01\x00bb\xff\xff"), uint8(4), int64(7))
	f.Add([]byte("kk\x00\x00kk\x00\x00"), uint8(16), int64(1))
	f.Add([]byte("ab\x10\x00cd\x10\x00ef\x10\x00gh\x10\x00"), uint8(3), int64(42))
	f.Fuzz(func(t *testing.T, data []byte, reducersRaw uint8, seed int64) {
		reducers := 1 + int(reducersRaw%32)
		freqs := freqsFromBytes(data)

		hash := &Hash{}
		skew := &SkewAware{MaxSplit: int(reducersRaw % 7)}
		rng := &Range{SampleSize: 1 + int(reducersRaw%9), Seed: seed}
		for _, p := range []Partitioner{hash, skew, rng} {
			if err := p.Plan(freqs, reducers); err != nil {
				t.Fatalf("%s: plan rejected a valid instance (%d keys, %d reducers): %v",
					p.Name(), len(freqs), reducers, err)
			}
			// Totality, disjointness, determinism, load conservation.
			if err := checkAssignment(p, freqs, reducers); err != nil {
				t.Fatal(err)
			}
			// Unknown keys must still route into range.
			for _, k := range []string{"", "zz", "never-planned"} {
				if r := p.Splits(k)[0]; r < 0 || r >= reducers {
					t.Fatalf("%s: unplanned key %q assigned to reducer %d of %d", p.Name(), k, r, reducers)
				}
			}
		}

		// The dominance invariant holds on every instance, not just the
		// property suite's distributions.
		if MaxLoad(skew) > MaxLoad(hash) {
			t.Fatalf("skew max load %d exceeds hash max load %d", MaxLoad(skew), MaxLoad(hash))
		}

		// Non-empty-where-possible. Hash is exempt (blind modular hashing
		// can legitimately leave a reducer empty); skew guarantees it when
		// its greedy plan stood and there are ≥ R positive keys; range
		// guarantees every reducer ≥ 1 key when there are ≥ R distinct keys.
		positive := 0
		for _, f := range freqs {
			if f > 0 {
				positive++
			}
		}
		if !skew.fellBack && positive >= reducers {
			for r, l := range skew.Loads() {
				if l == 0 {
					t.Fatalf("skew: reducer %d idle with %d positive keys for %d reducers\nloads=%v",
						r, positive, reducers, skew.Loads())
				}
			}
		}
		if len(freqs) >= reducers {
			owned := make([]bool, reducers)
			for k := range freqs {
				owned[rng.Assign(k)] = true
			}
			for r, ok := range owned {
				if !ok {
					t.Fatalf("range: reducer %d owns no keys with %d distinct keys for %d reducers\ncuts=%v",
						r, len(freqs), reducers, rng.cuts)
				}
			}
		}
	})
}
