// Package apps implements the four MapReduce analysis jobs the paper
// evaluates (§V-A): Moving Average, Top K Search, Word Count and Aggregate
// Word Histogram. Each application provides a real Map/Reduce computation
// over records (so outputs are verifiable) plus a cost profile that feeds
// the engine's timing model:
//
//   - CostFactor scales CPU time per matched input byte in the map phase
//     (Top K similarity search is heavy; Moving Average barely more than a
//     scan — the paper's Fig. 6(b)(c) gap comes from exactly this);
//   - OutputRatio is map-output bytes per matched input byte, which drives
//     shuffle volume (Fig. 7).
package apps

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"datanet/internal/records"
)

// Emit receives one intermediate key/value pair from a map invocation.
type Emit func(key, value string)

// App is one MapReduce analysis job.
type App interface {
	// Name identifies the application.
	Name() string
	// CostFactor is the relative CPU cost per matched input byte at map
	// time (1.0 ≈ the engine's calibrated byte-processing rate).
	CostFactor() float64
	// OutputRatio is map output volume per matched input byte.
	OutputRatio() float64
	// Map processes one record.
	//
	// Contract: Map must be safe for concurrent calls on distinct records,
	// each with its own emit. The engine folds a job's committed units on
	// GOMAXPROCS goroutines at once. Every registered app is safe: each has
	// value receivers and state that only its constructor writes.
	Map(r records.Record, emit Emit)
	// Reduce folds all values of one key into a final value.
	//
	// Contract: Reduce must be order- and split-insensitive — a function
	// of the value *multiset*, returning byte-identical output for any
	// permutation of values and for any concatenation order of partial
	// value lists. The engine relies on this in two places: the shuffle
	// delivers values in partitioner-dependent order, and the skew-aware
	// partitioner splits heavy keys across reducers whose partial lists
	// are merged before the final Reduce. The partition-independence
	// harness and TestReduceOrderAndSplitInsensitive enforce the contract
	// for every registered app.
	Reduce(key string, values []string) string
}

// Counter is optionally implemented by an App whose values are counts: the
// engine's collector then holds one integer per key, not a value string
// per emitted pair, and reduces a key with ReduceCount instead of Reduce.
//
// Contract: Map emits only the value "1", and ReduceCount(k, n) equals
// Reduce(k, values) for any n values that are all "1". A count does not
// depend on the order or the split of the values it covers, so ReduceCount
// needs neither. An average, a truncated top-K or a sorted render is not a
// count and must not implement it.
type Counter interface {
	ReduceCount(key string, n int64) string
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// eachField calls fn with every token of s, in order — exactly the
// sequence strings.Fields(s) returns, without building the slice. The walk
// covers ASCII, eight bytes at a time where it can; the first byte outside
// ASCII hands the unconsumed tail (from the start of the token in
// progress) to strings.Fields, so Unicode spaces and invalid UTF-8 split
// precisely as they do there.
func eachField(s string, fn func(tok string)) {
	const (
		lows  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	start, i := -1, 0
	for ; i+8 <= len(s); i += 8 {
		_ = s[i+7]
		w := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if w&highs != 0 {
			break // the byte walk below meets the non-ASCII byte and hands off
		}
		// An ASCII byte b ≤ 0x20 is the one whose b + 0x5f stays below 0x80;
		// no byte's sum carries into the next. Only those can be spaces.
		low := ^(w + (0x80-0x21)*lows) & highs
		if low == 0 {
			if start < 0 {
				start = i
			}
			continue
		}
		p := i // the first byte not yet placed in a token or skipped
		for ; low != 0; low &= low - 1 {
			j := i + bits.TrailingZeros64(low)>>3
			if !asciiSpace[s[j]] {
				continue // a control byte, part of a token like any other
			}
			if start < 0 && p < j {
				start = p
			}
			if start >= 0 {
				fn(s[start:j])
				start = -1
			}
			p = j + 1
		}
		if start < 0 && p < i+8 {
			start = p
		}
	}
	for ; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			if start < 0 {
				start = i
			}
			for _, tok := range strings.Fields(s[start:]) {
				fn(tok)
			}
			return
		case asciiSpace[c]:
			if start >= 0 {
				fn(s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fn(s[start:])
	}
}

// appendPadded appends v in decimal, zero-padded to width — byte-identical
// to fmt's %0<width>d. Negative values (fmt counts the sign in the width)
// take the fmt path itself rather than re-deriving its rule; record times
// are never negative in generated data.
func appendPadded(dst []byte, v int64, width int) []byte {
	if v < 0 {
		return append(dst, fmt.Sprintf("%0*d", width, v)...)
	}
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], v, 10)
	for n := len(d); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// paddedKey renders prefix + %0<width>d of v in one allocation.
func paddedKey(prefix string, v int64, width int) string {
	var buf [32]byte
	return string(appendPadded(append(buf[:0], prefix...), v, width))
}

// ratingValue renders a rating to three decimals, as the map value of the
// rating-carrying apps, in one allocation: byte-identical to
// strconv.FormatFloat(rating, 'f', 3, 64), whose fixed-precision 'f' form
// always takes the slow multi-precision path. When m/1000 converts back to
// the rating exactly, for m the rating's nearest thousandth (every
// generated rating does: they step by 0.5), the rating lies within half an
// ulp of m/1000, under 0.0005 while m < 1e15, so its correctly rounded
// three-decimal form is m's digits with the point put in. Any other value
// falls back to AppendFloat; so does −0, which m > 0 keeps out.
func ratingValue(rating float64) string {
	var buf [24]byte
	m := math.Round(rating * 1000)
	if !(m > 0 && m < 1e15 && m/1000 == rating) {
		return string(strconv.AppendFloat(buf[:0], rating, 'f', 3, 64))
	}
	u := uint64(m)
	d := strconv.AppendUint(buf[:0], u/1000, 10)
	return string(append(d, '.', byte('0'+u/100%10), byte('0'+u/10%10), byte('0'+u%10)))
}

// All returns the four paper applications with their default settings.
func All() []App {
	return []App{
		NewMovingAverage(3600 * 24),
		NewTopKSearch(10, "plot twist ending amazing director"),
		WordCount{},
		WordHistogram{},
	}
}

// ---------------------------------------------------------------------------
// Moving Average

// MovingAverage smooths the rating series with windowed averages over time
// intervals ("creating a series of averages over intervals of the full
// dataset"). The map phase only buckets records, so its compute cost is
// near pure iteration — the lightest of the four apps.
type MovingAverage struct {
	// WindowSeconds is the averaging interval width.
	WindowSeconds int64
}

// NewMovingAverage creates the app with the given window.
func NewMovingAverage(windowSeconds int64) MovingAverage {
	if windowSeconds <= 0 {
		windowSeconds = 3600
	}
	return MovingAverage{WindowSeconds: windowSeconds}
}

// Name implements App.
func (MovingAverage) Name() string { return "MovingAverage" }

// CostFactor implements App.
func (MovingAverage) CostFactor() float64 { return 0.7 }

// OutputRatio implements App.
func (MovingAverage) OutputRatio() float64 { return 0.05 }

// Map implements App: emit (window, rating).
func (a MovingAverage) Map(r records.Record, emit Emit) {
	w := r.Time / a.WindowSeconds
	emit(paddedKey("w", w, 8), ratingValue(r.Rating))
}

// Reduce implements App: average the ratings in a window.
func (MovingAverage) Reduce(key string, values []string) string {
	_, avg := meanOfParsed(values)
	return avg
}

// meanOfParsed folds the values that parse as floats: how many did, and
// their mean rendered to four decimals ("0" when none parsed). A malformed
// value is skipped from the sum and the count alike.
func meanOfParsed(values []string) (n int, avg string) {
	var sum float64
	for _, v := range values {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		sum += f
		n++
	}
	if n == 0 {
		return 0, "0"
	}
	return n, strconv.FormatFloat(sum/float64(n), 'f', 4, 64)
}

// ---------------------------------------------------------------------------
// Top K Search

// TopKSearch finds the K records most similar to a query sequence
// ("finding K sequences with the most similarity to a given sequence.
// This algorithm needs heavy computation"). Similarity is token overlap
// between the record payload and the query.
type TopKSearch struct {
	// K is the result count.
	K int

	// queryTokens are the query's distinct tokens: a handful, so a linear
	// scan beats hashing every payload token.
	queryTokens []string
}

// NewTopKSearch creates the app.
func NewTopKSearch(k int, query string) TopKSearch {
	if k <= 0 {
		k = 10
	}
	t := TopKSearch{K: k}
	for _, tok := range strings.Fields(query) {
		if !slices.Contains(t.queryTokens, tok) {
			t.queryTokens = append(t.queryTokens, tok)
		}
	}
	return t
}

// Name implements App.
func (TopKSearch) Name() string { return "TopKSearch" }

// CostFactor implements App. Similarity comparison is the heaviest map
// computation of the four apps.
func (TopKSearch) CostFactor() float64 { return 5.0 }

// OutputRatio implements App. Only candidate scores leave the mappers.
func (TopKSearch) OutputRatio() float64 { return 0.02 }

// Map implements App: score the record, emit under a single key so the
// reducer can take the global top K.
func (a TopKSearch) Map(r records.Record, emit Emit) {
	score := 0
	eachField(r.Payload, func(tok string) {
		if slices.Contains(a.queryTokens, tok) {
			score++
		}
	})
	if score > 0 {
		var buf [64]byte
		v := appendPadded(buf[:0], int64(score), 6)
		v = append(append(v, '|'), r.Sub...)
		v = strconv.AppendInt(append(v, '@'), r.Time, 10)
		emit("topk", string(v))
	}
}

// Reduce implements App: keep the K highest-scoring candidates, rendered
// as "score|ref" joined by commas, best first (zero-padded scores sort
// lexically). The candidates live in a buffer of at most 2K: the best K
// seen so far, descending, then newcomers that beat the K-th; a full
// buffer is sorted and cut back to K.
func (a TopKSearch) Reduce(key string, values []string) string {
	k := min(a.K, len(values))
	if k <= 0 {
		return ""
	}
	top := make([]string, 0, min(2*k, len(values)))
	descending := func() { slices.SortFunc(top, func(x, y string) int { return strings.Compare(y, x) }) }
	floor, cut := "", false
	for _, v := range values {
		if len(top) == cap(top) {
			descending()
			top, floor, cut = top[:k], top[k-1], true
		}
		if !cut || v > floor {
			top = append(top, v)
		}
	}
	descending()
	return strings.Join(top[:k], ",")
}

// ---------------------------------------------------------------------------
// Word Count

// WordCount is the canonical benchmark: count word occurrences in the
// sub-dataset payloads.
type WordCount struct{}

// Name implements App.
func (WordCount) Name() string { return "WordCount" }

// CostFactor implements App: tokenizing plus combining.
func (WordCount) CostFactor() float64 { return 2.8 }

// OutputRatio implements App: nearly every input word leaves the mapper.
func (WordCount) OutputRatio() float64 { return 0.5 }

// Map implements App.
func (WordCount) Map(r records.Record, emit Emit) {
	eachField(r.Payload, func(tok string) { emit(tok, "1") })
}

// Reduce implements App.
func (WordCount) Reduce(key string, values []string) string {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	return strconv.Itoa(total)
}

// ReduceCount implements Counter.
func (WordCount) ReduceCount(key string, n int64) string { return strconv.FormatInt(n, 10) }

// ---------------------------------------------------------------------------
// Aggregate Word Histogram

// WordHistogram computes the histogram of word lengths in the input
// sub-dataset — the paper's "fundamental plug-in operation in the
// MapReduce framework" (AggregateWordHistogram).
type WordHistogram struct{}

// Name implements App.
func (WordHistogram) Name() string { return "WordHistogram" }

// CostFactor implements App.
func (WordHistogram) CostFactor() float64 { return 3.2 }

// OutputRatio implements App: one small pair per word, smaller than
// WordCount's full-word keys.
func (WordHistogram) OutputRatio() float64 { return 0.3 }

// histKeys are WordHistogram's 33 keys, len00 … len32 (longer words
// share the last bucket), rendered once.
var histKeys = func() (keys [33]string) {
	for l := range keys {
		keys[l] = fmt.Sprintf("len%02d", l)
	}
	return keys
}()

// Map implements App: emit (len(word), 1).
func (WordHistogram) Map(r records.Record, emit Emit) {
	eachField(r.Payload, func(tok string) {
		emit(histKeys[min(len(tok), len(histKeys)-1)], "1")
	})
}

// Reduce implements App.
func (WordHistogram) Reduce(key string, values []string) string {
	return WordCount{}.Reduce(key, values)
}

// ReduceCount implements Counter.
func (WordHistogram) ReduceCount(key string, n int64) string { return strconv.FormatInt(n, 10) }

// ---------------------------------------------------------------------------
// Sessionization

// Sessionize reconstructs user sessions from a sub-dataset's click/event
// stream — the paper's introductory motivation ("the analysis on the
// webpage clicks streams needs to perform user sessionization analysis").
// Map emits (session-window, 1) per record keyed by the record's time
// bucketed at Gap; Reduce counts events per session window.
type Sessionize struct {
	// Gap is the inactivity threshold that splits sessions, in seconds.
	Gap int64
}

// NewSessionize creates the app (default gap: 30 minutes).
func NewSessionize(gapSeconds int64) Sessionize {
	if gapSeconds <= 0 {
		gapSeconds = 1800
	}
	return Sessionize{Gap: gapSeconds}
}

// Name implements App.
func (Sessionize) Name() string { return "Sessionize" }

// CostFactor implements App: grouping and ordering cost between
// WordCount's and TopK's.
func (Sessionize) CostFactor() float64 { return 2.2 }

// OutputRatio implements App.
func (Sessionize) OutputRatio() float64 { return 0.1 }

// Map implements App: emit the session window the record falls into. With
// per-sub-dataset filtering upstream, windows approximate sessions of the
// selected entity.
func (a Sessionize) Map(r records.Record, emit Emit) {
	emit(paddedKey("sess", r.Time/a.Gap, 10), "1")
}

// Reduce implements App: events per session window.
func (Sessionize) Reduce(key string, values []string) string {
	return WordCount{}.Reduce(key, values)
}

// ReduceCount implements Counter.
func (Sessionize) ReduceCount(key string, n int64) string { return strconv.FormatInt(n, 10) }
