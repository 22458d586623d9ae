// Package gen synthesizes the datasets the paper evaluates on. The
// originals (a MovieTweetings/MovieLens-derived review log and the GitHub
// Archive event stream) are external data we substitute with generators
// that reproduce the distributional properties DataNet depends on:
//
//   - movie reviews exhibit *content clustering*: a movie's reviews
//     concentrate in the blocks covering its release window (paper Fig.
//     1(a), 5(b));
//   - GitHub events are *not* release-clustered but per-type volume is
//     still imbalanced across blocks (paper Fig. 8(a)).
//
// All generators are deterministic given their seed.
package gen

import (
	"fmt"
	"math/rand"

	"datanet/internal/records"
	"datanet/internal/stats"
)

// secondsPerDay is the simulated clock granularity anchor.
const secondsPerDay = 86400

// MovieConfig controls the movie-review log generator.
type MovieConfig struct {
	// Movies is the catalogue size (the paper speaks of millions of
	// sub-datasets; experiments scale this down while keeping the shape).
	Movies int
	// Reviews is the total number of review records to generate.
	Reviews int
	// ZipfS is the popularity skew exponent across movies (≈1 reproduces
	// the classic head-heavy popularity curve).
	ZipfS float64
	// SpanDays is the time window covered by the log; releases are spread
	// over it and records are stored chronologically.
	SpanDays int
	// DecayDays is the mean lag between a movie's release and a review
	// (exponential decay: "most reviews cluster around the release").
	DecayDays float64
	// TailFrac is the fraction of a movie's reviews that arrive uniformly
	// between its release and the end of the log instead of decaying —
	// the steady trickle real catalogues exhibit long after release. It
	// controls how many blocks carry *some* of the sub-dataset (the paper's
	// Fig. 5(b) shows the target movie present in nearly every block while
	// still clustered around the release).
	TailFrac float64
	// PayloadWords is the mean review length in words.
	PayloadWords int
	// Seed makes generation reproducible.
	Seed int64
}

func (c MovieConfig) withDefaults() MovieConfig {
	if c.Movies <= 0 {
		c.Movies = 1000
	}
	if c.Reviews <= 0 {
		c.Reviews = 100000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.05
	}
	if c.SpanDays <= 0 {
		c.SpanDays = 365
	}
	if c.DecayDays <= 0 {
		c.DecayDays = 10
	}
	if c.TailFrac < 0 || c.TailFrac >= 1 {
		c.TailFrac = 0
	} else if c.TailFrac == 0 {
		c.TailFrac = 0.3
	}
	if c.PayloadWords <= 0 {
		c.PayloadWords = 40
	}
	return c
}

// MovieID formats the sub-dataset key of movie rank i.
func MovieID(i int) string { return fmt.Sprintf("movie-%05d", i) }

// Movies generates a chronologically ordered review log. Each review
// belongs to one movie (its sub-dataset); review times decay exponentially
// after the movie's release, producing the content clustering the paper
// analyzes. The payloads share arena chunks of up to 1 MiB: keeping one
// Payload keeps its chunk alive (clone it to keep it alone), as with
// records.Reader.
func Movies(cfg MovieConfig) []records.Record {
	cfg = cfg.withDefaults()
	src := rand.NewSource(cfg.Seed)
	rng := rand.New(src)
	zipf := stats.NewZipf(cfg.Movies, cfg.ZipfS)

	// Release dates: uniform over the span, but held fixed per movie.
	release := make([]int64, cfg.Movies)
	for i := range release {
		release[i] = int64(rng.Intn(cfg.SpanDays)) * secondsPerDay
	}

	// A movie's key and tag token are formatted on its first review and
	// shared by the rest.
	ids := make([]string, cfg.Movies)
	tags := make([]token, cfg.Movies)
	recs := make([]records.Record, 0, cfg.Reviews)
	maxText := (cfg.PayloadWords/2 + cfg.PayloadWords) * tokenCap
	text, payloads := newLine(maxText), newArena(cfg.Reviews*maxText)
	horizon := int64(cfg.SpanDays) * secondsPerDay
	for len(recs) < cfg.Reviews {
		m := zipf.Draw(rng)
		var t int64
		if rng.Float64() < cfg.TailFrac {
			// Steady post-release trickle, uniform to the end of the log.
			span := horizon - release[m]
			if span <= 0 {
				continue
			}
			t = release[m] + rng.Int63n(span)
		} else {
			lag := stats.Exponential(rng, cfg.DecayDays*secondsPerDay)
			t = release[m] + int64(lag)
			if t >= horizon {
				// Late-tail reviews past the log window are dropped, like
				// any collection cut-off would do.
				continue
			}
		}
		if ids[m] == "" {
			ids[m] = MovieID(m)
			tags[m] = tagToken(m)
		}
		recs = append(recs, records.Record{
			Sub:     ids[m],
			Time:    t,
			Rating:  1 + float64(intn(src, 9))/2, // 1.0 .. 5.0 in 0.5 steps
			Payload: payloads.cut(reviewText(rng, src, text, &tags[m], cfg.PayloadWords)),
		})
	}
	sortByTime(recs)
	return recs
}

// sortByTime orders recs by Time and, among equal times, by position,
// which is the order a stable sort gives, for times ≥ 0. It radix-sorts
// (Time, position) keys a byte at a time, each pass stable, over the
// bytes the largest time uses, and then moves each record once.
func sortByTime(recs []records.Record) {
	type key struct {
		t uint64
		i int
	}
	keys, next := make([]key, len(recs)), make([]key, len(recs))
	var bits uint64
	for i, r := range recs {
		keys[i] = key{uint64(r.Time), i}
		bits |= uint64(r.Time)
	}
	for shift := 0; bits>>shift != 0; shift += 8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k.t>>shift)]++
		}
		sum := 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		for _, k := range keys {
			d := byte(k.t >> shift)
			next[at[d]] = k
			at[d]++
		}
		keys, next = next, keys
	}
	// recs[k] takes the record at keys[k].i: follow each cycle of that
	// permutation once, marking a done position as its own source.
	for s := range keys {
		if keys[s].i == s {
			continue
		}
		first, k := recs[s], s
		for {
			j := keys[k].i
			keys[k].i = k
			if j == s {
				recs[k] = first
				break
			}
			recs[k] = recs[j]
			k = j
		}
	}
}

// reviewText writes a pseudo-review into text and returns it. The
// movie's tag token is mixed in so Top-K similarity search has genuine
// signal to find.
func reviewText(rng *rand.Rand, src rand.Source, text *line, tag *token, meanWords int) []byte {
	n := meanWords/2 + rng.Intn(meanWords+1)
	text.n = 0
	for i := 0; i < n; i++ {
		if intn(src, 8) == 0 {
			text.word(tag)
			continue
		}
		text.word(&movieTokens[intn(src, len(movieVocab))])
	}
	// The first token's space does not belong to the review.
	return text.buf[min(1, text.n):text.n]
}

// movieVocab is the word list of review text.
var movieVocab = [...]string{
	"the", "a", "plot", "film", "movie", "scene", "actor", "story",
	"great", "terrible", "boring", "amazing", "director", "script",
	"music", "score", "visuals", "ending", "beginning", "character",
	"love", "hate", "watch", "again", "never", "always", "classic",
	"modern", "slow", "fast", "deep", "shallow", "funny", "sad",
	"epic", "quiet", "loud", "bright", "dark", "twist", "sequel",
	"original", "remake", "cast", "dialogue", "pacing", "camera",
	"editing", "costume", "effects", "drama", "comedy", "thriller",
	"horror", "romance", "action", "family", "cult", "indie",
	"blockbuster", "masterpiece", "disaster", "average", "decent",
	"brilliant", "weak", "strong", "tense", "flat", "vivid",
}

var movieTokens = tokens(movieVocab[:])

// tagToken returns the token of movie m's tag: "tag" and m%10000 in four
// digits.
func tagToken(m int) token {
	t := newToken("tag0000")
	for i, v := t.n-1, m%10000; v > 0; i, v = i-1, v/10 {
		t.b[i] += byte(v % 10)
	}
	return t
}
