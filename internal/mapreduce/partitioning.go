package mapreduce

import (
	"datanet/internal/trace"
)

// harvestKeyFreqs replays the application map over the analysis phase's
// record set (the pre-coded task list, in block order — the same
// deterministic order the collector uses) and accumulates per-key output
// bytes. This is the "observed key frequencies harvested during the
// analysis-map phase" the skew-aware and range partitioners plan from: in
// a real cluster the map tasks would report these counts with their
// completion heartbeats, so no extra pass is charged on the simulated
// clock.
func (jc *jobContext) harvestKeyFreqs() map[string]int64 {
	freqs := make(map[string]int64)
	emit := func(k, v string) { freqs[k] += int64(len(k) + len(v)) }
	for _, idx := range jc.mapBlocks {
		for _, r := range jc.blocks[idx].Records {
			if jc.cfg.TargetSub != "" && r.Sub != jc.cfg.TargetSub {
				continue
			}
			jc.cfg.App.Map(r, emit)
		}
	}
	return freqs
}

// planPartition fixes each reducer's share of the map output volume:
// the uniform 1/R unless a partitioner is configured. With one, it fixes
// the key → reducer assignment: harvest frequencies, plan, convert the
// planned per-reducer loads into shares, and audit the plan into the
// Result and the trace.
func (jc *jobContext) planPartition() error {
	res, cfg := jc.res, jc.cfg
	jc.shares = make([]float64, cfg.Reducers)
	for r := range jc.shares {
		jc.shares[r] = 1 / float64(cfg.Reducers)
	}
	if jc.part == nil {
		return nil
	}
	freqs := jc.harvestKeyFreqs()
	if err := jc.part.Plan(freqs, cfg.Reducers); err != nil {
		return err
	}
	loads := jc.part.Loads()
	res.PartitionName = jc.part.Name()
	res.PartitionLoads = append([]int64(nil), loads...)
	for k := range freqs {
		if len(jc.part.Splits(k)) > 1 {
			res.PartitionSplitKeys++
		}
	}
	// Planned key bytes → volume shares. A job with no intermediate keys
	// has nothing to skew, so it keeps the uniform split.
	var total int64
	for _, l := range loads {
		total += l
	}
	if total > 0 {
		for r := range jc.shares {
			jc.shares[r] = float64(loads[r]) / float64(total)
		}
	}
	if jc.rec.Enabled() {
		var max int64
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		ev := trace.At(res.MapEnd, trace.EvPartition)
		ev.Detail = res.PartitionName
		ev.Bytes = max
		ev.Count = res.PartitionSplitKeys
		jc.rec.Record(ev)
	}
	return nil
}
