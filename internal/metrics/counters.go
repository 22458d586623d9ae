package metrics

import "fmt"

// FaultCounters aggregates the failure-handling work a set of runs did:
// crashes applied, tasks retried, transient read errors burned, committed
// outputs destroyed, replicas the name-node re-created, speculative backup
// wins, and jobs that degraded to the locality baseline because their
// scheduling meta-data was missing or corrupt. Experiments accumulate one
// instance across their runs and render it next to their result tables.
type FaultCounters struct {
	Runs              int
	NodeCrashes       int
	TasksRetried      int
	TransientErrors   int
	LostOutputs       int
	ReplicasRepaired  int
	SpeculativeWins   int
	MetadataFallbacks int
	// FalseSuspicions counts live nodes a failure detector wrongly
	// condemned (zero under the oracle, which cannot be wrong).
	FalseSuspicions int
	// DuplicateKills counts redundant attempts killed after another
	// attempt of the same task committed first.
	DuplicateKills int
	// DetectionLatency aggregates crash→response gaps in simulated
	// seconds; nil until the first latency is observed.
	DetectionLatency *Histogram
}

// Observe folds one run's counters in.
func (c *FaultCounters) Observe(crashes, retried, transient, lost, repaired, specWins int, metadataFallback bool) {
	c.Runs++
	c.NodeCrashes += crashes
	c.TasksRetried += retried
	c.TransientErrors += transient
	c.LostOutputs += lost
	c.ReplicasRepaired += repaired
	c.SpeculativeWins += specWins
	if metadataFallback {
		c.MetadataFallbacks++
	}
}

// ObserveDetection folds one run's failure-detector outcomes in:
// false suspicions, duplicate-attempt kills, and the crash→response
// latencies the detector paid. It composes with Observe (which keeps its
// historical signature) rather than extending it.
func (c *FaultCounters) ObserveDetection(falseSuspicions, duplicateKills int, latencies []float64) {
	c.FalseSuspicions += falseSuspicions
	c.DuplicateKills += duplicateKills
	if len(latencies) == 0 {
		return
	}
	if c.DetectionLatency == nil {
		c.DetectionLatency = NewHistogram()
	}
	for _, l := range latencies {
		c.DetectionLatency.Observe(l)
	}
}

// Table renders the counters.
func (c *FaultCounters) Table(title string) *Table {
	t := NewTable(title, "counter", "total")
	add := func(name string, v int) { t.Add(name, fmt.Sprint(v)) }
	add("runs observed", c.Runs)
	add("node crashes", c.NodeCrashes)
	add("tasks retried", c.TasksRetried)
	add("transient read errors", c.TransientErrors)
	add("filter outputs lost", c.LostOutputs)
	add("replicas repaired", c.ReplicasRepaired)
	add("speculation wins", c.SpeculativeWins)
	add("metadata fallbacks", c.MetadataFallbacks)
	add("false suspicions", c.FalseSuspicions)
	add("duplicate kills", c.DuplicateKills)
	if c.DetectionLatency != nil && c.DetectionLatency.Count() > 0 {
		t.Add("detection latency (mean/max s)",
			fmt.Sprintf("%.2f / %.2f", c.DetectionLatency.Mean(), c.DetectionLatency.Max()))
	}
	return t
}
