package gen

import (
	"math"
	"math/rand"
	"strings"

	"datanet/internal/records"
)

// EventTypes mirrors the GitHub Archive event taxonomy the paper runs on
// ("more than 20 event types ranging from new commits and fork events to
// opening new tickets, commenting, and adding members").
var EventTypes = []string{
	"PushEvent", "IssueEvent", "IssueCommentEvent", "PullRequestEvent",
	"PullRequestReviewEvent", "PullRequestReviewCommentEvent", "WatchEvent",
	"ForkEvent", "CreateEvent", "DeleteEvent", "ReleaseEvent", "MemberEvent",
	"PublicEvent", "CommitCommentEvent", "GollumEvent", "TeamAddEvent",
	"DeploymentEvent", "DeploymentStatusEvent", "StatusEvent", "PageBuildEvent",
	"LabelEvent", "MilestoneEvent",
}

// EventConfig controls the GitHub-style event log generator.
type EventConfig struct {
	// Events is the total record count.
	Events int
	// SpanDays is the covered window.
	SpanDays int
	// Drift modulates per-type rate over time (0..1); nonzero values make
	// per-block shares wander without producing release-style clustering.
	Drift float64
	// PayloadWords is the mean log-line length in words.
	PayloadWords int
	// Seed makes generation reproducible.
	Seed int64
}

func (c EventConfig) withDefaults() EventConfig {
	if c.Events <= 0 {
		c.Events = 100000
	}
	if c.SpanDays <= 0 {
		c.SpanDays = 120
	}
	if c.Drift == 0 {
		c.Drift = 0.6
	}
	if c.PayloadWords <= 0 {
		c.PayloadWords = 30
	}
	return c
}

// Events generates a chronological GitHub-style event log. Event types have
// fixed head-heavy base popularity (PushEvent dominates, as in the real
// archive) plus smooth sinusoidal drift, so a type's share differs from
// block to block (imbalanced) without the bursty clustering of the movie
// log — reproducing the paper's Fig. 8 contrast. The payloads share
// arena chunks of up to 1 MiB: keeping one Payload keeps its chunk alive,
// as with records.Reader.
func Events(cfg EventConfig) []records.Record {
	cfg = cfg.withDefaults()
	src := rand.NewSource(cfg.Seed)
	rng := rand.New(src)

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
	// A type's tag token is its lowercase name.
	typeTokens := make([]token, nTypes)
	for i, typ := range EventTypes {
		typeTokens[i] = newToken(strings.ToLower(typ))
	}
	maxText := len("repo00000 user00000") + (cfg.PayloadWords/2+cfg.PayloadWords)*tokenCap
	text, payloads := newLine(maxText), newArena(cfg.Events*maxText)
	recs := make([]records.Record, 0, cfg.Events)
	weights := make([]float64, nTypes)
	var t int64
	for len(recs) < cfg.Events {
		// Instantaneous per-type rates with drift.
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
			Rating:  float64(1 + intn(src, 5)),
			Payload: payloads.cut(eventText(rng, src, text, &typeTokens[typ], cfg.PayloadWords)),
		})
		// Jittered arrival spacing keeps the log chronological by
		// construction (no sort needed).
		t += step/2 + int64(rng.Int63n(step+1))
		if t >= horizon {
			t = horizon - 1
		}
	}
	return recs
}

// eventText writes one event's log line into text and returns it: its
// repository and user, then words mixed with the type's tag token.
func eventText(rng *rand.Rand, src rand.Source, text *line, typ *token, meanWords int) []byte {
	n := meanWords/2 + rng.Intn(meanWords+1)
	repo, user := intn(src, 50000), intn(src, 20000)
	text.n = 0
	text.str("repo")
	text.padded(repo, 5)
	text.str(" user")
	text.padded(user, 5)
	for i := 0; i < n; i++ {
		if intn(src, 10) == 0 {
			text.word(typ)
			continue
		}
		text.word(&eventTokens[intn(src, len(eventVocab))])
	}
	return text.buf[:text.n]
}

// eventVocab is the word list of event and access-log lines.
var eventVocab = [...]string{
	"opened", "closed", "merged", "pushed", "commit", "branch", "master",
	"main", "fix", "bug", "feature", "refactor", "test", "ci", "build",
	"deploy", "review", "comment", "issue", "pull", "request", "tag",
	"release", "version", "update", "remove", "add", "change", "docs",
	"readme", "license", "merge", "conflict", "rebase", "squash",
	"label", "milestone", "assign", "mention", "thread", "diff",
	"patch", "hotfix", "revert", "upstream", "fork", "clone", "remote",
}

var eventTokens = tokens(eventVocab[:])
