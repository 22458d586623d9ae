package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"datanet/internal/records"
	"datanet/internal/stats"
)

// TestGeneratorsPinnedBytes pins Events, WorldCup, GammaBlocks and the
// three Kind.Generate kinds the way TestMoviesPinnedBytes pins Movies:
// each configuration the suite (NewEventEnv, WebLog, Theory), the
// experiments tests, the bench (GenRecords) and datagen use, plus one odd
// configuration per generator.
func TestGeneratorsPinnedBytes(t *testing.T) {
	gamma := func(cfg GammaBlockConfig) func() []records.Record {
		return func() []records.Record { return Flatten(GammaBlocks(cfg)) }
	}
	theory := func(seed int64) GammaBlockConfig {
		return GammaBlockConfig{Blocks: 512, BlockBytes: 64 << 10, TargetSub: "target", Shape: 1.2, Scale: 7, Seed: seed}
	}
	cases := []struct {
		name string
		gen  func() []records.Record
		hash uint64
	}{
		{"events: suite NewEventEnv (128 × 256 KiB)", func() []records.Record {
			return Events(EventConfig{Events: 256 << 10 * 128 / 271, SpanDays: 120, Seed: 7})
		}, 0x97ddf15e542e140d},
		{"events: experiments tests (32 × 64 KiB)", func() []records.Record {
			return Events(EventConfig{Events: 64 << 10 * 32 / 271, SpanDays: 120, Seed: 7})
		}, 0xf2f6e663bda5dfd2},
		{"events: bench GenRecords", func() []records.Record { return Events(EventConfig{Events: 50000, Seed: 42}) }, 0x12edd1f2d5d179c5},
		{"events: odd", func() []records.Record {
			return Events(EventConfig{Events: 9, SpanDays: 1, Drift: -3, PayloadWords: 1, Seed: -3})
		}, 0x4c6e1a4418f57f17},
		{"weblog: suite WebLog (128 × 256 KiB)", func() []records.Record {
			return WorldCup(WorldCupConfig{Requests: 256 << 10 * 128 / 215, Seed: 13})
		}, 0xb8d522d507d31763},
		{"weblog: odd", func() []records.Record {
			return WorldCup(WorldCupConfig{Requests: 11, SpanDays: 3, Teams: 1, Matches: 1, PayloadWords: 1, Seed: -9})
		}, 0x9026a51fd2992533},
		{"gamma: suite Theory trial 0", gamma(theory(1000)), 0x5aa63277c207e3ab},
		{"gamma: suite Theory trial 1", gamma(theory(1001)), 0x98d48a195efb5445},
		{"gamma: suite Theory trial 2", gamma(theory(1002)), 0x9fffd6f66842648f},
		{"gamma: odd", gamma(GammaBlockConfig{Blocks: 3, BlockBytes: 700, TargetSub: "x", Shape: 0.5, Scale: 3, BackgroundSubs: 1, RecordBytes: 1, Seed: -1}), 0xb379f37f96a3079d},
		{"kind movies: datagen smoke", func() []records.Record { return Kind("movies").Generate(20000, 60, 365, 42) }, 0xa048facd4cd1229b},
		{"kind events: datagen smoke", func() []records.Record { return Kind("events").Generate(20000, 60, 365, 42) }, 0xccaaeb78806138f3},
		{"kind weblog: datagen smoke", func() []records.Record { return Kind("weblog").Generate(20000, 60, 365, 42) }, 0x8c541bd3300a8ee8},
	}
	for _, c := range cases {
		if h := hashRecords(c.gen()); h != c.hash {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, h, c.hash)
		}
	}
}

// referenceEvents is Events as it stood before the arena and the inlined
// draws (fmt.Fprintf and strings.ToLower per record), kept as the
// differential oracle.
func referenceEvents(cfg EventConfig) []records.Record {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nTypes := len(EventTypes)
	base := make([]float64, nTypes)
	for i := range base {
		base[i] = 1 / math.Pow(float64(i+1), 0.8)
	}
	phase := make([]float64, nTypes)
	period := make([]float64, nTypes)
	for i := range phase {
		phase[i] = rng.Float64() * 2 * math.Pi
		period[i] = float64(7+rng.Intn(21)) * secondsPerDay
	}
	horizon := int64(cfg.SpanDays) * secondsPerDay
	step := horizon / int64(cfg.Events)
	if step <= 0 {
		step = 1
	}
	vocab := eventVocab[:]
	recs := make([]records.Record, 0, cfg.Events)
	weights := make([]float64, nTypes)
	var t int64
	for len(recs) < cfg.Events {
		var sum float64
		for i := range weights {
			mod := 1 + cfg.Drift*math.Sin(2*math.Pi*float64(t)/period[i]+phase[i])
			if mod < 0.05 {
				mod = 0.05
			}
			weights[i] = base[i] * mod
			sum += weights[i]
		}
		u := rng.Float64() * sum
		typ := 0
		for i, w := range weights {
			if u <= w {
				typ = i
				break
			}
			u -= w
		}
		recs = append(recs, records.Record{
			Sub:     EventTypes[typ],
			Time:    t,
			Rating:  float64(1 + rng.Intn(5)),
			Payload: referenceEventText(rng, vocab, EventTypes[typ], cfg.PayloadWords),
		})
		t += step/2 + int64(rng.Int63n(step+1))
		if t >= horizon {
			t = horizon - 1
		}
	}
	return recs
}

func referenceEventText(rng *rand.Rand, vocab []string, typ string, meanWords int) string {
	n := meanWords/2 + rng.Intn(meanWords+1)
	var sb strings.Builder
	sb.Grow(n * 8)
	fmt.Fprintf(&sb, "repo%05d user%05d", rng.Intn(50000), rng.Intn(20000))
	for i := 0; i < n; i++ {
		sb.WriteByte(' ')
		if rng.Intn(10) == 0 {
			sb.WriteString(strings.ToLower(typ))
			continue
		}
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
	return sb.String()
}

// referenceWorldCup is WorldCup as it stood before the arena and the
// inlined draws (fmt.Fprintf per record, fmt.Sprintf per team key).
func referenceWorldCup(cfg WorldCupConfig) []records.Record {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	type match struct {
		at   int64
		a, b int
	}
	matches := make([]match, cfg.Matches)
	for i := range matches {
		day := 1 + i*(cfg.SpanDays-2)/cfg.Matches
		kickoff := int64(day)*secondsPerDay + int64(14+rng.Intn(7))*3600
		matches[i] = match{at: kickoff, a: (2 * i) % cfg.Teams, b: (2*i + 1) % cfg.Teams}
	}
	zipfTeams := stats.NewZipf(cfg.Teams, 0.7)
	vocab := eventVocab[:]
	horizon := int64(cfg.SpanDays) * secondsPerDay
	step := horizon / int64(cfg.Requests)
	if step <= 0 {
		step = 1
	}
	recs := make([]records.Record, 0, cfg.Requests)
	var t int64
	const flashWindow = 6 * 3600
	for len(recs) < cfg.Requests {
		hour := float64(t%secondsPerDay) / 3600
		diurnal := 0.35 + 0.65*(0.5+0.5*math.Sin((hour-9)/24*2*math.Pi))
		var sub string
		inFlash := false
		for _, m := range matches {
			d := t - m.at
			if d >= 0 && d < flashWindow {
				share := 0.8 * (1 - float64(d)/flashWindow)
				if rng.Float64() < share {
					if rng.Intn(2) == 0 {
						sub = fmt.Sprintf("team-%02d", m.a)
					} else {
						sub = fmt.Sprintf("team-%02d", m.b)
					}
					inFlash = true
				}
				break
			}
		}
		if !inFlash {
			if rng.Float64() < 0.45 {
				sub = worldCupSections[rng.Intn(len(worldCupSections))]
			} else {
				sub = fmt.Sprintf("team-%02d", zipfTeams.Draw(rng))
			}
		}
		recs = append(recs, records.Record{
			Sub:     sub,
			Time:    t,
			Rating:  float64(200 + 50*rng.Intn(4)),
			Payload: referenceAccessLine(rng, vocab, cfg.PayloadWords),
		})
		advance := float64(step) / diurnal
		t += int64(advance/2) + rng.Int63n(int64(advance)+1)
		if t >= horizon {
			t = horizon - 1
		}
	}
	return recs
}

func referenceAccessLine(rng *rand.Rand, vocab []string, meanWords int) string {
	n := meanWords/2 + rng.Intn(meanWords+1)
	var sb strings.Builder
	sb.Grow(n*7 + 32)
	fmt.Fprintf(&sb, "GET /page%04d ip%03d.%03d", rng.Intn(5000), rng.Intn(256), rng.Intn(256))
	for i := 0; i < n; i++ {
		sb.WriteByte(' ')
		sb.WriteString(vocab[rng.Intn(len(vocab))])
	}
	return sb.String()
}

// referenceGammaBlocks is GammaBlocks as it stood before the arena and
// the inlined draws (two allocations per payload, fmt.Sprintf per
// background key).
func referenceGammaBlocks(cfg GammaBlockConfig) [][]records.Record {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := stats.Gamma{K: cfg.Shape, Theta: cfg.Scale}
	payload := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	out := make([][]records.Record, cfg.Blocks)
	for bi := range out {
		targetBytes := int64(g.Sample(rng) * 1024)
		if targetBytes > cfg.BlockBytes {
			targetBytes = cfg.BlockBytes
		}
		var blk []records.Record
		var used int64
		for used < targetBytes {
			r := records.Record{Sub: cfg.TargetSub, Time: int64(bi), Rating: 1, Payload: payload(cfg.RecordBytes)}
			blk = append(blk, r)
			used += r.Size()
		}
		for used < cfg.BlockBytes {
			r := records.Record{
				Sub:     fmt.Sprintf("bg-%04d", rng.Intn(cfg.BackgroundSubs)),
				Time:    int64(bi),
				Rating:  1,
				Payload: payload(cfg.RecordBytes),
			}
			if used+r.Size() > cfg.BlockBytes {
				break
			}
			blk = append(blk, r)
			used += r.Size()
		}
		out[bi] = blk
	}
	return out
}

// sameRecords fails the test at the first record where got and want
// differ, naming it.
func sameRecords(t *testing.T, what string, got, want []records.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, reference %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: record %d = %v, reference %v", what, j, got[j], want[j])
		}
	}
}

// TestEventsMatchesReference, like TestMoviesMatchesReference, compares
// over random configurations field by field.
func TestEventsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160524))
	for i := 0; i < 24; i++ {
		cfg := EventConfig{
			Events:       rng.Intn(5000) - 10,
			SpanDays:     rng.Intn(200) - 5,
			Drift:        []float64{0, -1, 0.3, 0.6, 2}[rng.Intn(5)],
			PayloadWords: rng.Intn(50) - 2,
			Seed:         rng.Int63() - 1<<62,
		}
		sameRecords(t, fmt.Sprintf("%+v", cfg), Events(cfg), referenceEvents(cfg))
	}
}

func TestWorldCupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19980610))
	for i := 0; i < 24; i++ {
		cfg := WorldCupConfig{
			Requests:     rng.Intn(5000) - 10,
			SpanDays:     []int{0, 3, 30, 88, 365}[rng.Intn(5)],
			Teams:        rng.Intn(120) - 2, // past 99 the team number has three digits
			Matches:      rng.Intn(100) - 2,
			PayloadWords: rng.Intn(40) - 2,
			Seed:         rng.Int63() - 1<<62,
		}
		sameRecords(t, fmt.Sprintf("%+v", cfg), WorldCup(cfg), referenceWorldCup(cfg))
	}
}

func TestGammaBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	for i := 0; i < 24; i++ {
		cfg := GammaBlockConfig{
			Blocks:         1 + rng.Intn(40),
			BlockBytes:     []int64{100, 4 << 10, 64 << 10}[rng.Intn(3)],
			TargetSub:      []string{"", "target", "hot"}[rng.Intn(3)],
			Shape:          []float64{0, 0.5, 1.2, 3}[rng.Intn(4)],
			Scale:          []float64{0, 2, 7, 40}[rng.Intn(4)],
			BackgroundSubs: rng.Intn(12000) - 2, // past 10 000 the key has five digits
			RecordBytes:    rng.Intn(1500) - 2,
			Seed:           rng.Int63() - 1<<62,
		}
		got, want := GammaBlocks(cfg), referenceGammaBlocks(cfg)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d blocks, reference %d", cfg, len(got), len(want))
		}
		for b := range want {
			sameRecords(t, fmt.Sprintf("%+v block %d", cfg, b), got[b], want[b])
		}
	}
}
