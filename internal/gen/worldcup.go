package gen

import (
	"fmt"
	"math"
	"math/rand"

	"datanet/internal/records"
	"datanet/internal/stats"
)

// WorldCupConfig drives the web-access-log generator modeled on the
// WorldCup'98 trace the paper cites among its motivating datasets: a
// months-long HTTP log whose traffic shows strong diurnal cycles plus
// flash crowds around match days. Sub-datasets are the requested content
// categories (one per tournament team plus evergreen site sections), so a
// team's page hits spike violently around its matches — another face of
// content clustering.
type WorldCupConfig struct {
	// Requests is the total record count.
	Requests int
	// SpanDays is the covered window (the real trace spans ~88 days).
	SpanDays int
	// Teams is the number of team categories (32 in 1998).
	Teams int
	// Matches is the number of flash-crowd events to schedule.
	Matches int
	// PayloadWords is the mean log-line length in words.
	PayloadWords int
	// Seed makes generation reproducible.
	Seed int64
}

func (c WorldCupConfig) withDefaults() WorldCupConfig {
	if c.Requests <= 0 {
		c.Requests = 100000
	}
	if c.SpanDays <= 0 {
		c.SpanDays = 88
	}
	if c.Teams <= 0 {
		c.Teams = 32
	}
	if c.Matches <= 0 {
		c.Matches = 64
	}
	if c.PayloadWords <= 0 {
		c.PayloadWords = 24
	}
	return c
}

// TeamID formats the sub-dataset key of team i.
func TeamID(i int) string { return fmt.Sprintf("team-%02d", i) }

// Evergreen site sections that absorb baseline traffic.
var worldCupSections = []string{
	"frontpage", "schedule", "results", "tickets", "history", "venues",
}

// WorldCup generates the access log chronologically. Each match day gives
// two teams a flash crowd whose request rate decays over a few hours; the
// rest of the traffic is diurnal background over teams and site sections.
// The payloads share arena chunks of up to 1 MiB: keeping one Payload
// keeps its chunk alive, as with records.Reader.
func WorldCup(cfg WorldCupConfig) []records.Record {
	cfg = cfg.withDefaults()
	src := rand.NewSource(cfg.Seed)
	rng := rand.New(src)

	// Match schedule: (time, teamA, teamB), spread over the span with a
	// round-robin-ish team rotation so every team gets flash crowds.
	type match struct {
		at   int64
		a, b int
	}
	matches := make([]match, cfg.Matches)
	for i := range matches {
		day := 1 + i*(cfg.SpanDays-2)/cfg.Matches
		kickoff := int64(day)*secondsPerDay + int64(14+rng.Intn(7))*3600
		a := (2 * i) % cfg.Teams
		b := (2*i + 1) % cfg.Teams
		matches[i] = match{at: kickoff, a: a, b: b}
	}

	zipfTeams := stats.NewZipf(cfg.Teams, 0.7)
	// A team's key is formatted on its first request and shared by the
	// rest.
	teams := make([]string, cfg.Teams)
	team := func(i int) string {
		if teams[i] == "" {
			teams[i] = TeamID(i)
		}
		return teams[i]
	}
	maxText := len("GET /page0000 ip000.000") + (cfg.PayloadWords/2+cfg.PayloadWords)*tokenCap
	text, payloads := newLine(maxText), newArena(cfg.Requests*maxText)
	horizon := int64(cfg.SpanDays) * secondsPerDay
	step := horizon / int64(cfg.Requests)
	if step <= 0 {
		step = 1
	}

	recs := make([]records.Record, 0, cfg.Requests)
	var t int64
	const flashWindow = 6 * 3600 // a match dominates traffic for ~6 hours
	for len(recs) < cfg.Requests {
		// Diurnal intensity gates how fast the clock advances: nights are
		// quiet, so consecutive records are further apart.
		hour := float64(t%secondsPerDay) / 3600
		diurnal := 0.35 + 0.65*(0.5+0.5*math.Sin((hour-9)/24*2*math.Pi))

		// Is a flash crowd active?
		var sub string
		inFlash := false
		for _, m := range matches {
			d := t - m.at
			if d >= 0 && d < flashWindow {
				// Flash traffic share decays linearly over the window.
				share := 0.8 * (1 - float64(d)/flashWindow)
				if rng.Float64() < share {
					if intn(src, 2) == 0 {
						sub = team(m.a)
					} else {
						sub = team(m.b)
					}
					inFlash = true
				}
				break
			}
		}
		if !inFlash {
			if rng.Float64() < 0.45 {
				sub = worldCupSections[intn(src, len(worldCupSections))]
			} else {
				sub = team(zipfTeams.Draw(rng))
			}
		}
		recs = append(recs, records.Record{
			Sub:     sub,
			Time:    t,
			Rating:  float64(200 + 50*intn(src, 4)), // HTTP-ish status codes
			Payload: payloads.cut(accessLine(rng, src, text, cfg.PayloadWords)),
		})
		advance := float64(step) / diurnal
		t += int64(advance/2) + rng.Int63n(int64(advance)+1)
		if t >= horizon {
			t = horizon - 1
		}
	}
	return recs
}

// accessLine writes one request's log line into text and returns it: the
// page and client address, then words.
func accessLine(rng *rand.Rand, src rand.Source, text *line, meanWords int) []byte {
	n := meanWords/2 + rng.Intn(meanWords+1)
	page, a, b := intn(src, 5000), intn(src, 256), intn(src, 256)
	text.n = 0
	text.str("GET /page")
	text.padded(page, 4)
	text.str(" ip")
	text.padded(a, 3)
	text.str(".")
	text.padded(b, 3)
	for i := 0; i < n; i++ {
		text.word(&eventTokens[intn(src, len(eventVocab))])
	}
	return text.buf[:text.n]
}
