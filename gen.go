package datanet

import "datanet/internal/gen"

// MovieLogConfig configures the synthetic movie-review log generator — a
// stand-in for the MovieTweetings/MovieLens-derived dataset of the paper's
// evaluation, reproducing its content clustering (reviews concentrate
// around each movie's release, with a steady long tail).
type MovieLogConfig = gen.MovieConfig

// EventLogConfig configures the synthetic GitHub-style event log — the
// paper's second dataset, whose per-type volume is imbalanced across
// blocks without release-style clustering.
type EventLogConfig = gen.EventConfig

// GenerateMovieLog produces a chronological review log. The sub-dataset
// key of movie rank i is MovieID(i); rank 0 is the most popular. The
// payloads share arena chunks of up to 1 MiB: keeping one Payload keeps
// its chunk alive (clone it to keep it alone).
func GenerateMovieLog(cfg MovieLogConfig) []Record { return gen.Movies(cfg) }

// GenerateEventLog produces a chronological event log whose sub-dataset
// keys are GitHub-archive event types such as "PushEvent" and
// "IssueEvent".
func GenerateEventLog(cfg EventLogConfig) []Record { return gen.Events(cfg) }

// WebLogConfig configures the synthetic WorldCup'98-style web access log —
// diurnal traffic with flash crowds around match days; sub-dataset keys
// are team pages (TeamID) and evergreen site sections.
type WebLogConfig = gen.WorldCupConfig

// GenerateWebLog produces the chronological access log.
func GenerateWebLog(cfg WebLogConfig) []Record { return gen.WorldCup(cfg) }

// TeamID formats the sub-dataset key of team i, matching GenerateWebLog's
// output.
func TeamID(i int) string { return gen.TeamID(i) }

// MovieID formats the sub-dataset key of movie rank i, matching
// GenerateMovieLog's output.
func MovieID(i int) string { return gen.MovieID(i) }

// EventTypes lists the event-type keys GenerateEventLog can produce, most
// frequent first.
func EventTypes() []string {
	out := make([]string, len(gen.EventTypes))
	copy(out, gen.EventTypes)
	return out
}
