//go:build race

package main

// raceEnabled reports a -race build, under which the 1 000-run chaos
// campaigns take minutes.
const raceEnabled = true
