// Package bloom implements the Bloom filter used by ElasticMap to record
// non-dominant sub-datasets (paper §III-A). It is a classic bitmap filter
// with double hashing over two FNV-1a digests, plus the sizing math the
// paper quotes: representing items with false-positive probability ε costs
// -ln(ε)/ln²(2) bits per item.
package bloom

import (
	"encoding/binary"
	"errors"
	"math"

	"datanet/internal/hashutil"
)

// Filter is a Bloom filter. The zero value is not usable; construct with
// New or NewWithEstimates.
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     uint64 // number of hash functions
	count uint64 // number of Add calls (approximate item count)
}

// ErrBadParams reports invalid construction parameters.
var ErrBadParams = errors.New("bloom: m and k must be positive")

// New creates a filter with m bits and k hash functions.
func New(m, k uint64) (*Filter, error) {
	if m == 0 || k == 0 {
		return nil, ErrBadParams
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

// NewWithEstimates creates a filter sized for n items at false-positive
// rate fp using the optimal m = -n·ln(fp)/ln²2 and k = (m/n)·ln2.
func NewWithEstimates(n uint64, fp float64) *Filter {
	if n == 0 {
		n = 1
	}
	if fp <= 0 {
		fp = 1e-9
	}
	if fp >= 1 {
		fp = 0.999
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	if m == 0 {
		m = 1
	}
	k := uint64(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	f, _ := New(m, k)
	return f
}

// BitsPerItem returns the paper's Eq.-5 per-item memory cost for a target
// false-positive rate: -ln(ε)/ln²(2) bits.
func BitsPerItem(fp float64) float64 {
	if fp <= 0 || fp >= 1 {
		return 0
	}
	return -math.Log(fp) / (math.Ln2 * math.Ln2)
}

// Key is a precomputed probe key: the two base digests of one datum, from
// which the k probe positions h1 + i·h2 are derived. Hashing a key once and
// probing many filters with it (ElasticMap's Eq.-6 scan tests one key
// against every block's filter) skips re-hashing per filter.
type Key struct {
	a, b uint64
}

// KeyOf digests s: FNV-1a of s, and FNV-1a of that digest's little-endian
// bytes followed by s. Every filter ever encoded was built from exactly
// these digests, so the formula is part of the on-disk format.
func KeyOf(s string) Key {
	a := hashutil.Sum64String(s)
	var salt [8]byte
	binary.LittleEndian.PutUint64(salt[:], a)
	d := hashutil.New()
	d.Write(salt[:])
	d.WriteString(s)
	return newKey(a, d.Sum64())
}

// newKey applies the zero fix-up: a zero stride would put all k probes on
// one bit, so it is replaced by a fixed odd constant.
func newKey(a, b uint64) Key {
	if b == 0 {
		b = 0x9e3779b97f4a7c15
	}
	return Key{a: a, b: b}
}

// pos is the bit position of key's probe i: (a + i·b) mod m.
func (f *Filter) pos(key Key, i uint64) uint64 { return (key.a + i*key.b) % f.m }

func (f *Filter) add(key Key) {
	for i := uint64(0); i < f.k; i++ {
		pos := f.pos(key, i)
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.count++
}

// TestKey reports whether a precomputed key may be present.
func (f *Filter) TestKey(key Key) bool {
	for i := uint64(0); i < f.k; i++ {
		pos := f.pos(key, i)
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Probe returns key's probe i as a number, without branching on the bit:
// 1 when its bit is set, else 0, and 1 for every i ≥ K() (the filter has
// no such probe to fail). TestKey(key) holds exactly when Probe(key, i) is
// 1 for every i < K(), so a caller may test many filters a probe round at
// a time, each round over the survivors of the last.
func (f *Filter) Probe(key Key, i uint64) uint64 {
	if i >= f.k {
		return 1
	}
	pos := f.pos(key, i)
	return f.bits[pos/64] >> (pos % 64) & 1
}

// K returns the number of probes a key is tested with.
func (f *Filter) K() uint64 { return f.k }

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) { f.add(KeyOf(string(data))) }

// AddString inserts a string key.
func (f *Filter) AddString(s string) { f.add(KeyOf(s)) }

// Test reports whether data may be present (no false negatives).
func (f *Filter) Test(data []byte) bool { return f.TestKey(KeyOf(string(data))) }

// TestString reports whether a string key may be present.
func (f *Filter) TestString(s string) bool { return f.TestKey(KeyOf(s)) }

// SizeBits returns the memory footprint of the bitmap in bits.
func (f *Filter) SizeBits() uint64 { return f.m }

// MarshalBinary encodes the filter (m, k, count, bitmap) for persistence.
func (f *Filter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 24+8*len(f.bits))
	binary.LittleEndian.PutUint64(buf[0:], f.m)
	binary.LittleEndian.PutUint64(buf[8:], f.k)
	binary.LittleEndian.PutUint64(buf[16:], f.count)
	for i, w := range f.bits {
		binary.LittleEndian.PutUint64(buf[24+8*i:], w)
	}
	return buf, nil
}

// UnmarshalBinary decodes a filter previously encoded by MarshalBinary.
// The header must agree with the bitmap it ships with: m fills exactly the
// bitmap's last word, and k ≤ m, which bounds every probe loop by the
// input's own size.
func (f *Filter) UnmarshalBinary(data []byte) error {
	if len(data) < 24 {
		return errors.New("bloom: short buffer")
	}
	m := binary.LittleEndian.Uint64(data[0:])
	k := binary.LittleEndian.Uint64(data[8:])
	count := binary.LittleEndian.Uint64(data[16:])
	// ⌈m/64⌉ without the (m+63)/64 that wraps for m near 2^64.
	words := m / 64
	if m%64 != 0 {
		words++
	}
	if body := uint64(len(data) - 24); body%8 != 0 || body/8 != words || m == 0 || k == 0 || k > m {
		return errors.New("bloom: corrupt buffer")
	}
	bits := make([]uint64, words)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(data[24+8*i:])
	}
	f.m, f.k, f.count, f.bits = m, k, count, bits
	return nil
}
