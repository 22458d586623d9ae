package metrics

import (
	"fmt"
	"sort"
)

// Snapshot bundles counters, gauges and histograms into one
// machine-readable unit — the numeric complement of a trace's event list.
// The engine's trace recorder produces one per run; experiments merge the
// per-run snapshots into sweep totals. The embedded FaultCounters keep the
// failure-handling tallies in the same export.
type Snapshot struct {
	Counters   map[string]int64      `json:"counters"`
	Gauges     map[string]float64    `json:"gauges"`
	Histograms map[string]*Histogram `json:"histograms"`
	Faults     FaultCounters         `json:"faults"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]*Histogram),
	}
}

// Inc adds delta to a counter.
func (s *Snapshot) Inc(name string, delta int64) { s.Counters[name] += delta }

// SetGauge records a point-in-time value.
func (s *Snapshot) SetGauge(name string, v float64) { s.Gauges[name] = v }

// Histogram returns the named histogram, creating it on first use.
func (s *Snapshot) Histogram(name string) *Histogram {
	h, ok := s.Histograms[name]
	if !ok {
		h = NewHistogram()
		s.Histograms[name] = h
	}
	return h
}

// Tables renders the snapshot as aligned text tables (counters+gauges,
// then histograms), for the same report surfaces FaultCounters.Table
// feeds. Keys are sorted so output is deterministic.
func (s *Snapshot) Tables(title string) []*Table {
	t := NewTable(title, "metric", "value")
	for _, k := range sortedKeys(s.Counters) {
		t.Add(k, fmt.Sprint(s.Counters[k]))
	}
	for _, k := range sortedKeys(s.Gauges) {
		t.Add(k, fmt.Sprintf("%.4g", s.Gauges[k]))
	}
	out := []*Table{t}
	if len(s.Histograms) > 0 {
		ht := NewTable(title+" — histograms", "histogram", "count", "mean", "p50", "p90", "p99", "max")
		for _, k := range sortedKeys(s.Histograms) {
			sum := s.Histograms[k].Summary()
			ht.Add(k, fmt.Sprint(sum.Count), fmt.Sprintf("%.4g", sum.Mean),
				fmt.Sprintf("%.4g", sum.P50), fmt.Sprintf("%.4g", sum.P90),
				fmt.Sprintf("%.4g", sum.P99), fmt.Sprintf("%.4g", sum.Max))
		}
		out = append(out, ht)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
