package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/records"
)

// fieldsOf collects eachField's token sequence.
func fieldsOf(s string) []string {
	var toks []string
	eachField(s, func(tok string) { toks = append(toks, tok) })
	return toks
}

// checkEachField is the oracle TestEachFieldMatchesStringsFields and
// FuzzEachField share: the token sequence is strings.Fields', exactly.
func checkEachField(t *testing.T, s string) {
	t.Helper()
	if got, want := fieldsOf(s), strings.Fields(s); !slices.Equal(got, want) {
		t.Fatalf("eachField(%q)\n got %q\nwant %q", s, got, want)
	}
}

// fieldAlphabet mixes letters with every ASCII space, the control bytes
// that share the word walk's ≤ 0x20 test with them but are token bytes
// (0x00, 0x01, 0x1f), DEL and '!' (0x21, the first byte past that test),
// the Latin-1 and multi-byte Unicode spaces strings.Fields honours
// (U+0085, U+00A0, U+2003), a non-space multi-byte rune and a lone invalid
// byte.
var fieldAlphabet = []string{
	"a", "b", "z", "Q", "7", "-",
	" ", " ", "\t", "\n", "\v", "\f", "\r",
	"\x00", "\x01", "\x1f", "\x7f", "!",
	"\u0085", "\u00a0", "\u2003", "é", "\xff",
}

func TestEachFieldMatchesStringsFields(t *testing.T) {
	for _, s := range []string{"", " ", "a", " a ", "a  b", "\u2003", "ab\u00a0c", "ab\xffcd e", "é", "x é\u0085y"} {
		checkEachField(t, s)
	}
	// Up to 40 pieces: every byte class lands on every offset of the first
	// two 8-byte words, and on the byte walk's tail after them.
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(41); n > 0; n-- {
			b.WriteString(fieldAlphabet[rng.Intn(len(fieldAlphabet))])
		}
		checkEachField(t, b.String())
	}
}

func FuzzEachField(f *testing.F) {
	for _, s := range []string{"", "the plot  twist", " lead\ttrail\n", "a\u00a0b\u2003c", "café au lait", "\xff \xc3", "x\u0085",
		// Tokens and spaces straddling the 8- and 16-byte word edges.
		"abcdefgh ijklmnop qrstuvwx", "abcdefg hijklmno pqrstuvw", "abcdefghi\x01jklmnopq!rs",
		"       a       b\x00      c  ", "sevench\u00a0eight16bytesXX é", "word1234word5678\x7f\x1f\t\vend"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkEachField(t, s) })
}

// checkRatingValue compares ratingValue with the strconv form it replaces.
func checkRatingValue(t *testing.T, r float64) {
	t.Helper()
	if got, want := ratingValue(r), strconv.FormatFloat(r, 'f', 3, 64); got != want {
		t.Fatalf("ratingValue(%v [%#016x]) = %q, want %q", r, math.Float64bits(r), got, want)
	}
}

// TestRatingValueMatchesFormatFloat: ratingValue is FormatFloat's
// three-decimal form on the thousandths grid and an ulp either side of it,
// at every magnitude up to past the fast path's 1e12 edge, on both signs,
// and on random bit patterns.
func TestRatingValueMatchesFormatFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 40000; i++ {
		m := float64(rng.Int63n(1_000_000))
		if i%2 == 1 {
			m = math.Floor(rng.Float64() * math.Pow(10, float64(rng.Intn(17))))
		}
		r := m / 1000
		for _, v := range []float64{r, -r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1))} {
			checkRatingValue(t, v)
		}
		checkRatingValue(t, math.Float64frombits(rng.Uint64()))
	}
}

// FuzzRatingValue: ratingValue equals FormatFloat(r, 'f', 3, 64) for every
// float64 bit pattern.
func FuzzRatingValue(f *testing.F) {
	for _, r := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1),
		0.0005, 4.9995, 1e12, 1e15, 5e-324, -3.5} {
		f.Add(math.Float64bits(r))
	}
	f.Fuzz(func(t *testing.T, bits uint64) { checkRatingValue(t, math.Float64frombits(bits)) })
}

// TestPaddedRenderMatchesFmt pins the strconv-based key renders to the
// fmt verbs they replaced, at every width the apps use, over the digit
// count boundaries, the over-width range and negative times.
func TestPaddedRenderMatchesFmt(t *testing.T) {
	vals := []int64{0, 1, math.MaxInt64, math.MinInt64, -1, -7, -99999999, -123456789012345}
	for p := int64(10); p > 0 && p < math.MaxInt64/10; p *= 10 {
		vals = append(vals, p-1, p, -p)
	}
	for _, v := range vals {
		for _, width := range []int{2, 6, 8, 10, 12} {
			want := fmt.Sprintf("%0*d", width, v)
			if got := string(appendPadded(nil, v, width)); got != want {
				t.Errorf("appendPadded(%d, width %d) = %q, want %q", v, width, got, want)
			}
		}
		const day = 3600 * 24
		r := records.Record{Sub: "movie-00003", Time: v, Rating: 3.5}
		keyOf := func(app App) string {
			key := ""
			app.Map(r, func(k, _ string) { key = k })
			return key
		}
		if got, want := keyOf(NewMovingAverage(day)), fmt.Sprintf("w%08d", v/day); got != want {
			t.Errorf("MovingAverage key at %d = %q, want %q", v, got, want)
		}
		if got, want := keyOf(NewSessionize(1800)), fmt.Sprintf("sess%010d", v/1800); got != want {
			t.Errorf("Sessionize key at %d = %q, want %q", v, got, want)
		}
		if got, want := keyOf(DistributedSort{}), fmt.Sprintf("t%012d|%s", v, r.Sub); got != want {
			t.Errorf("DistributedSort key at %d = %q, want %q", v, got, want)
		}
		if got, want := (SubDatasetJoin{}).JoinKey(v), fmt.Sprintf("j%010d", v/day); got != want {
			t.Errorf("JoinKey(%d) = %q, want %q", v, got, want)
		}
		r.Payload = "plot plot twist"
		value := ""
		NewTopKSearch(3, "plot twist").Map(r, func(_, val string) { value = val })
		if want := fmt.Sprintf("%06d|%s@%d", 3, r.Sub, v); value != want {
			t.Errorf("TopKSearch value at %d = %q, want %q", v, value, want)
		}
	}
	for l, k := range histKeys {
		if want := fmt.Sprintf("len%02d", l); k != want {
			t.Errorf("histKeys[%d] = %q, want %q", l, k, want)
		}
	}
}

// TestMapAllocations pins the per-record allocation budget of every Map
// with a discarding emit: the token walkers allocate nothing, the keyed
// apps nothing beyond the key and value strings they hand to emit.
func TestMapAllocations(t *testing.T) {
	r := records.Record{
		Sub: "movie-00003", Time: 1_400_000_000, Rating: 3.5,
		Payload: "a slow scene then the plot twist ending nobody saw coming",
	}
	discard := func(string, string) {}
	for _, tc := range []struct {
		app App
		max float64
	}{
		{WordCount{}, 0},
		{WordHistogram{}, 0},
		{NewTopKSearch(10, "absent words only"), 0}, // non-matching: no emit
		{NewTopKSearch(10, "plot twist"), 1},
		{NewSessionize(1800), 1},
		{NewMovingAverage(3600 * 24), 2},
		{DistributedSort{}, 2},
		{NewSubDatasetJoin("movie-00001", 3600*24, nil), 2},
	} {
		if got := testing.AllocsPerRun(200, func() { tc.app.Map(r, discard) }); got > tc.max {
			t.Errorf("%s.Map allocates %.0f per record, want at most %.0f", tc.app.Name(), got, tc.max)
		}
	}
}

// topKSortAll is TopKSearch.Reduce as it was before the bounded buffer:
// copy every value, sort descending, keep the first K.
func topKSortAll(k int, values []string) string {
	sorted := append([]string(nil), values...)
	sort.Sort(sort.Reverse(sort.StringSlice(sorted)))
	return strings.Join(sorted[:min(k, len(sorted))], ",")
}

// TestTopKReduceMatchesSortAll: the bounded top-K renders what sorting
// every value did, over random multisets heavy with ties (few scores,
// few refs), with K from 1 past the value count, and over sorted and
// reverse-sorted input, which enter the buffer most and least often.
func TestTopKReduceMatchesSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	check := func(k int, vals []string) {
		t.Helper()
		if got, want := NewTopKSearch(k, "q").Reduce("topk", vals), topKSortAll(k, vals); got != want {
			t.Fatalf("K=%d over %q:\n got %q\nwant %q", k, vals, got, want)
		}
	}
	for i := 0; i < 3000; i++ {
		vals := make([]string, rng.Intn(70))
		for j := range vals {
			vals[j] = fmt.Sprintf("%06d|movie-%d@%d", rng.Intn(6), rng.Intn(3), rng.Intn(3))
		}
		for _, k := range []int{1, 2, 3, 10, len(vals) - 1, len(vals), len(vals) + 5} {
			if k > 0 {
				check(k, vals)
				up := slices.Clone(vals)
				slices.Sort(up)
				check(k, up)
				slices.Reverse(up)
				check(k, up)
			}
		}
	}
}

// sortRenderAll is DistributedSort.Reduce as it was: copy, sort, join,
// even for a lone value.
func sortRenderAll(values []string) string {
	sorted := append([]string(nil), values...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}

// TestSortReduceLoneValue: DistributedSort renders what it did for every
// value count, and a key's lone value (every key of generated data, whose
// sort keys are distinct) is returned without a copy.
func TestSortReduceLoneValue(t *testing.T) {
	for _, vals := range [][]string{nil, {"3.500"}, {"4.000", "1.500"}, {"2.000", "2.000", "0.500"}} {
		if got, want := (DistributedSort{}).Reduce("k", vals), sortRenderAll(vals); got != want {
			t.Errorf("Reduce(%q) = %q, want %q", vals, got, want)
		}
	}
	lone := []string{"3.500"}
	if n := testing.AllocsPerRun(100, func() { DistributedSort{}.Reduce("k", lone) }); n != 0 {
		t.Errorf("Reduce of a lone value allocates %.0f times, want 0", n)
	}
}
