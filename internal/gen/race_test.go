//go:build race

package gen

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so fmt's printer pool allocates a varying number of times.
const raceEnabled = true
