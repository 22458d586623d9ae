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
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

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
// analyzes.
func Movies(cfg MovieConfig) []records.Record {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := stats.NewZipf(cfg.Movies, cfg.ZipfS)

	// Release dates: uniform over the span, but held fixed per movie.
	release := make([]int64, cfg.Movies)
	for i := range release {
		release[i] = int64(rng.Intn(cfg.SpanDays)) * secondsPerDay
	}

	vocab := buildVocabulary()
	// A movie's key and tag token are formatted on its first review and
	// shared by the rest.
	ids := make([]string, cfg.Movies)
	tags := make([]string, cfg.Movies)
	recs := make([]records.Record, 0, cfg.Reviews)
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
			tags[m] = fmt.Sprintf("tag%04d", m%10000)
		}
		recs = append(recs, records.Record{
			Sub:     ids[m],
			Time:    t,
			Rating:  1 + float64(rng.Intn(9))/2, // 1.0 .. 5.0 in 0.5 steps
			Payload: reviewText(rng, vocab, tags[m], cfg.PayloadWords),
		})
	}
	slices.SortStableFunc(recs, func(a, b records.Record) int { return cmp.Compare(a.Time, b.Time) })
	return recs
}

// reviewText produces a pseudo-review. The movie's tag token is mixed in
// so Top-K similarity search has genuine signal to find.
func reviewText(rng *rand.Rand, vocab []string, tag string, meanWords int) string {
	n := meanWords/2 + rng.Intn(meanWords+1)
	var sb strings.Builder
	sb.Grow(n * 7)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if rng.Intn(8) == 0 {
			sb.WriteString(tag)
			continue
		}
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
	return sb.String()
}

// buildVocabulary returns the shared word list used for payload text.
func buildVocabulary() []string {
	base := []string{
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
	return base
}
