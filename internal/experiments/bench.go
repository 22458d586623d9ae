package experiments

import (
	"fmt"
	"time"
)

// BenchReport is the record of one suite run that RunSuiteBench returns:
// per-section wall-clock cost (what bench/ times) plus the simulated
// makespans and counters the sections expose (what the gate table checks).
type BenchReport struct {
	// Workers is the worker-pool size the suite ran with.
	Workers int
	// WallSeconds is the whole suite's wall-clock time.
	WallSeconds float64
	// Sections lists every experiment in suite order.
	Sections []BenchSection
}

// BenchSection is one experiment's benchmark record.
type BenchSection struct {
	Name        string
	WallSeconds float64
	// SimMakespans are named simulated job makespans (seconds on the
	// simulated clock) for sections that expose them — wall-clock
	// measures the simulator, these measure the simulated cluster.
	SimMakespans map[string]float64
	// Counters are named integer outcomes (replica moves, bytes shipped)
	// for sections that expose them.
	Counters map[string]int64
}

// SimMakespanner is implemented by experiment results that can report
// simulated job makespans for the suite report.
type SimMakespanner interface {
	SimMakespans() map[string]float64
}

// Counterer is implemented by experiment results that can report integer
// outcome counters (e.g. the placement sweep's moves and bytes shipped).
type Counterer interface {
	Counters() map[string]int64
}

// benchSection builds one section record from a finished experiment.
func benchSection(name string, wall time.Duration, out fmt.Stringer) BenchSection {
	sec := BenchSection{Name: name, WallSeconds: wall.Seconds()}
	if m, ok := out.(SimMakespanner); ok {
		sec.SimMakespans = m.SimMakespans()
	}
	if c, ok := out.(Counterer); ok {
		sec.Counters = c.Counters()
	}
	return sec
}

// SimMakespans reports the four analysis jobs' simulated end-to-end times
// under both schedulers (the quantity Fig. 5(a) compares).
func (r *Fig5Result) SimMakespans() map[string]float64 {
	m := make(map[string]float64, 2*len(r.Apps))
	for _, a := range r.Apps {
		m[a.App+"/baseline"] = a.Without.JobTime
		m[a.App+"/datanet"] = a.With.JobTime
	}
	return m
}

// SimMakespans reports each mitigation strategy's simulated analysis time.
func (r *ReactiveResult) SimMakespans() map[string]float64 {
	m := make(map[string]float64, len(r.Rows))
	for _, row := range r.Rows {
		m[row.Strategy] = row.AnalysisTime
	}
	return m
}
