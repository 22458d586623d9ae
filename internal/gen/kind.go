package gen

import (
	"errors"
	"fmt"

	"datanet/internal/records"
)

// Kind names a dataset the generators make, the way cmd/datagen spells it;
// *Kind is a flag.Value.
type Kind string

// kinds is the one table of generators: each makes n records over span
// days from seed, movies sizing the movie catalogue.
var kinds = map[Kind]func(n, movies, span int, seed int64) []records.Record{
	"movies": func(n, movies, span int, seed int64) []records.Record {
		return Movies(MovieConfig{Movies: movies, Reviews: n, SpanDays: span, Seed: seed})
	},
	"events": func(n, _, span int, seed int64) []records.Record {
		return Events(EventConfig{Events: n, SpanDays: span, Seed: seed})
	},
	"weblog": func(n, _, span int, seed int64) []records.Record {
		return WorldCup(WorldCupConfig{Requests: n, SpanDays: span, Seed: seed})
	},
}

// ErrKind reports a dataset kind Set does not know.
var ErrKind = errors.New("gen: unknown dataset type")

// String names the kind.
func (k *Kind) String() string { return string(*k) }

// Set parses a kind name.
func (k *Kind) Set(s string) error {
	if kinds[Kind(s)] == nil {
		return fmt.Errorf("%w %q (want movies, events or weblog)", ErrKind, s)
	}
	*k = Kind(s)
	return nil
}

// Generate makes n records of the kind over span days from seed; movies
// sizes the movie catalogue.
func (k Kind) Generate(n, movies, span int, seed int64) []records.Record {
	return kinds[k](n, movies, span, seed)
}
