package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err != ErrBadParams {
		t.Errorf("New(0,3) err = %v, want ErrBadParams", err)
	}
	if _, err := New(64, 0); err != ErrBadParams {
		t.Errorf("New(64,0) err = %v, want ErrBadParams", err)
	}
	f, err := New(128, 3)
	if err != nil || f.SizeBits() != 128 || f.k != 3 {
		t.Fatalf("New(128,3) = %v, %v", f, err)
	}
}

// The defining Bloom filter property: no false negatives, ever.
func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.AddString(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.TestString(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	f := NewWithEstimates(500, 0.05)
	seen := make(map[string]bool)
	if err := quick.Check(func(key []byte) bool {
		f.Add(key)
		seen[string(key)] = true
		for k := range seen {
			if !f.Test([]byte(k)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n, fp = 5000, 0.01
	f := NewWithEstimates(n, fp)
	for i := 0; i < n; i++ {
		f.AddString(fmt.Sprintf("present-%d", i))
	}
	falsePos := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.TestString(fmt.Sprintf("absent-%d", i)) {
			falsePos++
		}
	}
	rate := float64(falsePos) / probes
	if rate > 3*fp {
		t.Errorf("observed FP rate %g exceeds 3× target %g", rate, fp)
	}
	// The textbook estimate (1 - e^{-kn/m})^k at the filter's own k and m.
	k, m := float64(f.k), float64(f.SizeBits())
	if est := math.Pow(1-math.Exp(-k*n/m), k); math.Abs(est-rate) > 0.02 {
		t.Errorf("estimated FP %g vs observed %g", est, rate)
	}
}

func TestBitsPerItem(t *testing.T) {
	// Paper: ~10 bits per item at a typical configuration (ε ≈ 0.8%..1%).
	got := BitsPerItem(0.01)
	if got < 9 || got > 10 {
		t.Errorf("BitsPerItem(0.01) = %g, want ≈9.6", got)
	}
	if BitsPerItem(0) != 0 || BitsPerItem(1) != 0 {
		t.Error("degenerate fp rates must cost 0")
	}
}

func TestNewWithEstimatesDegenerate(t *testing.T) {
	for _, c := range []struct {
		n  uint64
		fp float64
	}{{0, 0.01}, {10, 0}, {10, 2}} {
		f := NewWithEstimates(c.n, c.fp)
		if f == nil || f.SizeBits() == 0 || f.k == 0 {
			t.Errorf("NewWithEstimates(%d, %g) produced unusable filter", c.n, c.fp)
		}
	}
}

// fillRatio is the fraction of f's bits that are set.
func fillRatio(f *Filter) float64 {
	var set int
	for _, w := range f.bits {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(f.m)
}

func TestCountAndFillRatio(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	if f.count != 0 || fillRatio(f) != 0 {
		t.Error("fresh filter should be empty")
	}
	f.AddString("a")
	f.AddString("b")
	if f.count != 2 {
		t.Errorf("Count = %d, want 2", f.count)
	}
	if fr := fillRatio(f); fr <= 0 || fr > float64(2*f.k)/float64(f.SizeBits()) {
		t.Errorf("FillRatio = %g out of expected bounds", fr)
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	f := NewWithEstimates(200, 0.02)
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for _, k := range keys {
		f.AddString(k)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.SizeBits() != f.SizeBits() || g.k != f.k || g.count != f.count {
		t.Fatalf("roundtrip mismatch: %d/%d/%d vs %d/%d/%d", g.SizeBits(), g.k, g.count, f.SizeBits(), f.k, f.count)
	}
	for _, k := range keys {
		if !g.TestString(k) {
			t.Errorf("roundtrip lost %q", k)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer must fail")
	}
	good, _ := NewWithEstimates(10, 0.01).MarshalBinary()
	if err := f.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated buffer must fail")
	}
}

func TestBaseHashesDistinct(t *testing.T) {
	if KeyOf("x") == KeyOf("y") {
		t.Error("different keys hash identically")
	}
	if KeyOf("").b == 0 || newKey(1, 0).b == 0 {
		t.Error("second hash must never be zero (double hashing degenerates)")
	}
}

// fnvKey is the reference digest pair, written against hash/fnv the way
// the filter computed it before internal/hashutil existed.
func fnvKey(s string) Key {
	h1 := fnv.New64a()
	h1.Write([]byte(s))
	a := h1.Sum64()
	var salt [8]byte
	binary.LittleEndian.PutUint64(salt[:], a)
	h2 := fnv.New64a()
	h2.Write(salt[:])
	h2.Write([]byte(s))
	b := h2.Sum64()
	if b == 0 {
		b = 0x9e3779b97f4a7c15
	}
	return Key{a: a, b: b}
}

// KeyOf fixes the on-disk meaning of every encoded filter: it must equal
// the hash/fnv digests bit for bit.
func TestKeyOfMatchesHashFNV(t *testing.T) {
	corpus := []string{"", "a", "movie-00000", "s07", "日本語のキー", "naïve/ключ/🙂", strings.Repeat("x", 1000), "\x00\xff"}
	for i := 0; i < 500; i++ {
		corpus = append(corpus, fmt.Sprintf("key-%d", i))
	}
	for _, s := range corpus {
		if got, want := KeyOf(s), fnvKey(s); got != want {
			t.Errorf("KeyOf(%q) = %+v, hash/fnv gives %+v", s, got, want)
		}
	}
	// No short string has a zero salted digest, so the fix-up is checked
	// on the constructor both paths share.
	if got := newKey(7, 0); got != (Key{a: 7, b: 0x9e3779b97f4a7c15}) {
		t.Errorf("zero fix-up: newKey(7, 0) = %+v", got)
	}
	if got := newKey(7, 3); got != (Key{a: 7, b: 3}) {
		t.Errorf("newKey(7, 3) = %+v, want the digests unchanged", got)
	}
}

// The byte, string and precomputed-key entry points are one routine.
func TestKeyEntryPointsAgree(t *testing.T) {
	f := NewWithEstimates(50, 0.05)
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			f.AddString(fmt.Sprintf("k%d", i))
		} else {
			f.Add([]byte(fmt.Sprintf("k%d", i)))
		}
	}
	for i := 0; i < 400; i++ {
		s := fmt.Sprintf("k%d", i)
		want := f.TestKey(KeyOf(s))
		if f.TestString(s) != want || f.Test([]byte(s)) != want || probed(f, KeyOf(s)) != want {
			t.Fatalf("entry points disagree on %q", s)
		}
		if i < 50 && !want {
			t.Fatalf("false negative for %q", s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { f.Test([]byte("key-12345")) }); n != 0 {
		t.Errorf("Test allocates %g times per call", n)
	}
}

// probed is TestKey restated over Probe: every probe i < K() is 1, and so
// is the one past the last.
func probed(f *Filter, key Key) bool {
	for i := uint64(0); i < f.K(); i++ {
		if f.Probe(key, i) != 1 {
			return false
		}
	}
	return f.Probe(key, f.K()) == 1
}

// header encodes a filter header with an explicit bitmap.
func header(m, k uint64, bitmap []uint64) []byte {
	buf := make([]byte, 24+8*len(bitmap))
	binary.LittleEndian.PutUint64(buf[0:], m)
	binary.LittleEndian.PutUint64(buf[8:], k)
	for i, w := range bitmap {
		binary.LittleEndian.PutUint64(buf[24+8*i:], w)
	}
	return buf
}

// Regression: ⌈m/64⌉ computed as (m+63)/64 wraps to 0 for m = 2^64−1, so
// a 24-byte header with no bitmap decoded and the first probe indexed
// far past the empty bitmap.
func TestUnmarshalRejectsWrappingM(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary(header(math.MaxUint64, 1, nil)); err == nil {
		t.Fatal("m = 2^64-1 with an empty bitmap must be rejected")
	}
	if err := f.UnmarshalBinary(header(129, 1, make([]uint64, 2))); err == nil {
		t.Fatal("m = 129 needs 3 bitmap words, not 2")
	}
	if err := f.UnmarshalBinary(header(128, 1, make([]uint64, 2))); err != nil {
		t.Fatalf("m = 128 over 2 words is valid: %v", err)
	}
}

// Regression: an all-ones bitmap answers every probe "set", so k bounds
// the probe loop alone; k > m is never built and is refused.
func TestUnmarshalRejectsHugeK(t *testing.T) {
	var f Filter
	if err := f.UnmarshalBinary(header(64, math.MaxUint64, []uint64{math.MaxUint64})); err == nil {
		t.Fatal("k = 2^64-1 must be rejected")
	}
	if err := f.UnmarshalBinary(header(64, 65, []uint64{math.MaxUint64})); err == nil {
		t.Fatal("k > m must be rejected")
	}
	if err := f.UnmarshalBinary(header(64, 64, []uint64{math.MaxUint64})); err != nil {
		t.Fatalf("k = m is valid: %v", err)
	}
	if !f.TestString("anything") {
		t.Error("an all-ones filter answers every probe present")
	}
}

// FuzzFilterDecode: arbitrary bytes decode to a filter or an error; a
// decoded filter answers probes without panicking and in bounded time, and
// Probe, taken round by round, agrees with TestKey.
func FuzzFilterDecode(f *testing.F) {
	good := NewWithEstimates(20, 0.01)
	good.AddString("seed")
	valid, _ := good.MarshalBinary()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(header(math.MaxUint64, 1, nil))
	f.Add(header(64, math.MaxUint64, []uint64{math.MaxUint64}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Filter
		if err := g.UnmarshalBinary(data); err != nil {
			return
		}
		g.TestString("probe")
		g.Test(data)
		for _, s := range []string{"seed", "probe", "absent"} {
			if probed(&g, KeyOf(s)) != g.TestKey(KeyOf(s)) {
				t.Fatalf("Probe and TestKey disagree on %q", s)
			}
		}
		fillRatio(&g)
	})
}
