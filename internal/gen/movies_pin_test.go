package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/hashutil"
	"datanet/internal/records"
	"datanet/internal/stats"
)

// hashRecords is FNV-64a over "Sub|Time|Rating|Payload\n" of every record,
// in order: any change to a field, to the order or to the count moves it.
func hashRecords(recs []records.Record) uint64 {
	d := hashutil.New()
	var num []byte
	for _, r := range recs {
		d.WriteString(r.Sub)
		d.WriteString("|")
		num = strconv.AppendInt(num[:0], r.Time, 10)
		d.Write(num)
		d.WriteString("|")
		num = strconv.AppendFloat(num[:0], r.Rating, 'g', -1, 64)
		d.Write(num)
		d.WriteString("|")
		d.WriteString(r.Payload)
		d.WriteString("\n")
	}
	return d.Sum64()
}

// TestMoviesPinnedBytes pins the generator's output for the six datasets
// the experiment suite names (every golden and simulated makespan is a
// function of these bytes) plus one odd configuration. A mismatch means
// the dataset changed, not merely that generation got faster or slower.
func TestMoviesPinnedBytes(t *testing.T) {
	cases := []struct {
		name string
		cfg  MovieConfig
		hash uint64
	}{
		{"suite default (256 × 256 KiB)", MovieConfig{Movies: 2000, Reviews: 220029, SpanDays: 365, Seed: 42}, 0xdb7d27a2dfa13859},
		{"fig1 (128 × 256 KiB)", MovieConfig{Movies: 2000, Reviews: 110014, SpanDays: 365, Seed: 42}, 0xafce8c57c158f5b8},
		{"fault params (64 × 64 KiB)", MovieConfig{Movies: 500, Reviews: 13751, SpanDays: 365, Seed: 42}, 0x04e3cdcd8ca37842},
		{"straggler 128 nodes", MovieConfig{Movies: 500, Reviews: 27503, SpanDays: 365, Seed: 42}, 0x5e587b5e618d683c},
		{"straggler 1024 nodes", MovieConfig{Movies: 500, Reviews: 220029, SpanDays: 365, Seed: 42}, 0x198d41e9b4c47548},
		{"model-check 64 MiB block", MovieConfig{Movies: 20000, Reviews: 220029, SpanDays: 7, Seed: 99}, 0xd166d6b8b831b2d2},
		{"odd: tail disabled, tiny", MovieConfig{Movies: 3, Reviews: 7, SpanDays: 2, DecayDays: 0.5, TailFrac: 1.5, PayloadWords: 1, Seed: -5}, 0xa12607e4c9616921},
	}
	for _, c := range cases {
		recs := Movies(c.cfg)
		if len(recs) != c.cfg.Reviews {
			t.Errorf("%s: %d records, want %d", c.name, len(recs), c.cfg.Reviews)
		}
		if h := hashRecords(recs); h != c.hash {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, h, c.hash)
		}
	}
}

// referenceMovies is the generator as it stood before the fast path
// (reflection-based sort.SliceStable, fmt.Fprintf per tag token,
// fmt.Sprintf per sub-dataset key), kept as the differential oracle.
func referenceMovies(cfg MovieConfig) []records.Record {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := stats.NewZipf(cfg.Movies, cfg.ZipfS)
	release := make([]int64, cfg.Movies)
	for i := range release {
		release[i] = int64(rng.Intn(cfg.SpanDays)) * secondsPerDay
	}
	vocab := movieVocab[:]
	recs := make([]records.Record, 0, cfg.Reviews)
	horizon := int64(cfg.SpanDays) * secondsPerDay
	for len(recs) < cfg.Reviews {
		m := zipf.Draw(rng)
		var t int64
		if rng.Float64() < cfg.TailFrac {
			span := horizon - release[m]
			if span <= 0 {
				continue
			}
			t = release[m] + rng.Int63n(span)
		} else {
			lag := stats.Exponential(rng, cfg.DecayDays*secondsPerDay)
			t = release[m] + int64(lag)
			if t >= horizon {
				continue
			}
		}
		recs = append(recs, records.Record{
			Sub:     fmt.Sprintf("movie-%05d", m),
			Time:    t,
			Rating:  1 + float64(rng.Intn(9))/2,
			Payload: referenceReviewText(rng, vocab, m, cfg.PayloadWords),
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return recs
}

func referenceReviewText(rng *rand.Rand, vocab []string, movie, meanWords int) string {
	n := meanWords/2 + rng.Intn(meanWords+1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if rng.Intn(8) == 0 {
			fmt.Fprintf(&sb, "tag%04d", movie%10000)
			continue
		}
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
	return sb.String()
}

// TestMoviesMatchesReference compares Movies to the reference generator
// over random configurations, field by field, so a divergence names the
// first record that differs instead of just a hash.
func TestMoviesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160523))
	for i := 0; i < 20; i++ {
		cfg := MovieConfig{
			Movies:       1 + rng.Intn(12000), // past 10 000 the tag number wraps
			Reviews:      1 + rng.Intn(4000),
			ZipfS:        []float64{0, 0.6, 1.05, 1.4}[rng.Intn(4)],
			SpanDays:     1 + rng.Intn(400),
			DecayDays:    []float64{0, 0.5, 10, 90}[rng.Intn(4)],
			TailFrac:     []float64{-1, 0, 0.3, 0.9, 1, 2}[rng.Intn(6)],
			PayloadWords: rng.Intn(60),
			Seed:         rng.Int63() - 1<<62,
		}
		got, want := Movies(cfg), referenceMovies(cfg)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d records, reference %d", cfg, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%+v: record %d = %v, reference %v", cfg, j, got[j], want[j])
			}
		}
	}
}
