package mapreduce

import (
	"fmt"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
	"datanet/internal/partition"
	"datanet/internal/sched"
	"datanet/internal/sim"
	"datanet/internal/straggle"
	"datanet/internal/trace"

	"datanet/internal/faults"
)

// jobContext is the state one job's phases share: the configuration, the
// pipeline clock, the accumulating Result, and the hand-offs between
// consecutive phases (filter outputs, reducer placement, output volume).
type jobContext struct {
	cfg   Config
	topo  *cluster.Topology
	inj   *faults.Injector
	clock *sim.Clock
	rec   *trace.Recorder
	res   *Result

	blocks []*hdfs.Block
	tasks  []sched.Task
	fsim   *filterSim
	coll   *collector

	// part is the reduce partitioner (nil with partitioning off).
	part partition.Partitioner

	// Shuffle → reduce hand-off. shares is each reducer's fraction of the
	// map output volume (uniform 1/R with no partitioner).
	totalOut    float64
	reducerNode []cluster.NodeID
	shares      []float64
}

// runPipeline runs the job's five phases in order on the shared clock.
// Each phase advances the clock to its completion instant before
// returning, and a phase-barrier trace event is stamped there (the
// rebalance records its own migration event instead).
func runPipeline(jc *jobContext) error {
	if err := runFilter(jc); err != nil {
		return err
	}
	jc.barrier("filter-end")
	runRebalance(jc)
	if err := runAnalysis(jc); err != nil {
		return err
	}
	jc.barrier("map-end")
	if err := runShuffle(jc); err != nil {
		return err
	}
	jc.barrier("shuffle-end")
	runReduce(jc)
	jc.barrier("reduce-end")
	return nil
}

// barrier stamps a phase-barrier trace event at the clock's instant.
func (jc *jobContext) barrier(name string) {
	ev := trace.At(jc.clock.Now(), trace.EvPhase)
	ev.Detail = name
	jc.rec.Record(ev)
}

// runFilter runs the event-driven slot simulation under the pull model,
// with failure-aware execution (crash detection, re-replication, retry
// with backoff on surviving replica holders) — see filter.go. The kernel
// advances its own internal clock; the pipeline clock jumps to the filter
// barrier once the phase completes.
func runFilter(jc *jobContext) error {
	if err := jc.fsim.run(); err != nil {
		return err
	}
	jc.clock.AdvanceTo(jc.res.FilterEnd)
	return nil
}

// foldOutput fills the collector from what the simulation committed: the
// executed output and a partitioner's key frequencies are one fold over the
// commit ledger (see foldLedger), its runs balanced by matched bytes. A
// unit's pairs are Config.MapOutput's stored ones when the caller computed
// them, and otherwise its block's records mapped straight into the
// collector; a fragment a k-of-n run rebuilt at its barrier is mapped from
// its reconstructed bytes either way.
func (jc *jobContext) foldOutput() error {
	app, mo := jc.cfg.App, jc.cfg.MapOutput
	if !jc.cfg.ExecuteApp && jc.part == nil {
		return nil
	}
	units, rebuilt, err := jc.fsim.coded.rebuild(jc.fsim, jc.blocks)
	if err != nil {
		return err
	}
	matched := func(u int) int64 { return jc.fsim.truth[jc.tasks[u].Index] }
	foldLedger(jc.fsim.live[:units], matched, func(u int, c *collector) {
		if recs, ok := rebuilt[u]; ok {
			c.mapRecords(recs, app, "") // filtered when it was encoded
		} else if block := jc.tasks[u].Index; mo != nil {
			mo.source(block, c)
		} else {
			c.mapRecords(jc.blocks[block].Records, app, jc.cfg.TargetSub)
		}
	}, jc.coll)
	return nil
}

// runRebalance is the optional reactive comparator (§V-A.4,
// SkewTune-style): level the filtered workloads by migrating bytes,
// paying the network time of the busiest endpoint, before analysis
// starts. DataNet makes this migration unnecessary by scheduling the
// imbalance away up front.
func runRebalance(jc *jobContext) {
	res, cfg, inj := jc.res, jc.cfg, jc.inj
	if cfg.RebalanceAfterFilter {
		plan := sched.PlanRebalance(res.NodeWorkload)
		res.MigratedBytes = plan.BytesMoved
		endpointBytes := make(map[cluster.NodeID]int64)
		for _, mv := range plan.Moves {
			endpointBytes[mv.From] += mv.Bytes
			endpointBytes[mv.To] += mv.Bytes
			res.NodeWorkload[mv.From] -= mv.Bytes
			res.NodeWorkload[mv.To] += mv.Bytes
		}
		for id, bytes := range endpointBytes {
			t := float64(bytes) / inj.NetRate(id, jc.topo.Node(id).NetRate)
			if t > res.MigrationTime {
				res.MigrationTime = t
			}
		}
		if jc.rec.Enabled() {
			ev := trace.At(res.FilterEnd, trace.EvPhase)
			ev.Dur = res.MigrationTime
			ev.Bytes = res.MigratedBytes
			ev.Detail = "rebalance-migration"
			jc.rec.Record(ev)
		}
	}
	jc.clock.Advance(res.MigrationTime)
}

// runAnalysis processes the locally stored filtered data. The data
// cannot move, so stragglers are exactly the overloaded nodes. Each node
// runs one analysis map per filtered fragment it stored (one per filter
// task it executed — per-task setup is therefore balanced across nodes),
// while compute scales with its filtered bytes. The fragments are
// page-cache-hot right after the filter pass, so the analysis map is
// compute-bound: light applications (MovingAverage) are dominated by the
// balanced setup term and gain little from balancing, heavy ones
// (TopKSearch) gain the most — the Fig. 5(a)/6 gradient.
func runAnalysis(jc *jobContext) error {
	res, cfg, inj, topo := jc.res, jc.cfg, jc.inj, jc.topo
	analysisStart := jc.clock.Now() // filter barrier plus any migration
	nodeTasks := jc.fsim.nodeTasks
	durations := make(map[cluster.NodeID]float64, topo.N())
	for _, id := range topo.IDs() {
		node := topo.Node(id)
		w := res.NodeWorkload[id]
		durations[id] = float64(nodeTasks[id])*cfg.TaskOverhead +
			float64(w)*cfg.App.CostFactor()/inj.CPURate(id, node.CPURate)
	}
	// Crashes striking after the filter barrier destroy the victim's
	// stored fragments mid-analysis; a surviving node re-reads and redoes
	// that share (see filterSim.recoverAnalysis). Recovery is applied
	// before speculative execution mitigates the remaining stragglers.
	if err := jc.fsim.recoverAnalysis(analysisStart, durations); err != nil {
		return err
	}
	if cfg.Speculative {
		res.SpeculativeWins += straggle.BarrierSpeculate(topo, jc.fsim.believed(analysisStart, false), res.NodeWorkload,
			durations, cfg.TaskOverhead, cfg.App.CostFactor(), inj, jc.rec, analysisStart)
	}
	res.FirstMapEnd = -1
	for _, id := range topo.IDs() {
		dur := durations[id]
		res.NodeCompute[id] = dur
		res.NodeBusy[id] += dur
		end := analysisStart + dur
		if end > res.MapEnd {
			res.MapEnd = end
		}
		if res.FirstMapEnd < 0 || end < res.FirstMapEnd {
			res.FirstMapEnd = end
		}
		if jc.rec.Enabled() && dur > 0 {
			jc.rec.Record(trace.Event{T: analysisStart, Type: trace.EvAnalysisSpan,
				Node: int(id), Block: -1, Dur: dur})
		}
	}
	if res.FirstMapEnd < 0 {
		res.FirstMapEnd = analysisStart
	}
	if res.MapEnd > jc.clock.Now() {
		jc.clock.AdvanceTo(res.MapEnd)
	}
	return jc.foldOutput() // the last crash is applied: the ledger is final
}

// runShuffle: the shuffle window opens at the first analysis-map completion and cannot
// close before the last (§V-A.3). Each reducer fetches its share of the
// total map output at its NIC rate, minus whatever was produced on its
// own node (local output never crosses the network). Placement is
// round-robin by default; with OutputAwareReducers the reduce tasks land
// on the highest-output nodes, maximizing that local share — the paper's
// future-work aggregation optimization.
func runShuffle(jc *jobContext) error {
	res, cfg, inj, topo := jc.res, jc.cfg, jc.inj, jc.topo
	var totalMatched int64
	for _, w := range res.NodeWorkload {
		totalMatched += w
	}
	jc.totalOut = float64(totalMatched) * cfg.App.OutputRatio()
	// Reduce tasks only land on nodes the master believes alive when the
	// shuffle opens.
	liveAtShuffle := jc.fsim.believed(res.MapEnd, false)
	if len(liveAtShuffle) == 0 {
		return fmt.Errorf("%w: nowhere to place reduce tasks", ErrNoLiveNodes)
	}
	jc.reducerNode = make([]cluster.NodeID, cfg.Reducers)
	if cfg.OutputAwareReducers {
		plan := sched.PlanAggregation(res.NodeWorkload, cfg.Reducers)
		for r := range jc.reducerNode {
			nid := plan.Aggregators[r%len(plan.Aggregators)]
			if jc.fsim.believedDead(nid, res.MapEnd) {
				nid = liveAtShuffle[r%len(liveAtShuffle)]
			}
			jc.reducerNode[r] = nid
		}
	} else {
		for r := range jc.reducerNode {
			jc.reducerNode[r] = liveAtShuffle[r%len(liveAtShuffle)]
		}
	}
	if err := jc.planPartition(); err != nil {
		return err
	}
	res.ShuffleDurations = make([]float64, cfg.Reducers)
	res.ShuffleBytesPerReducer = make([]int64, cfg.Reducers)
	shuffleEnd := res.MapEnd
	for r := 0; r < cfg.Reducers; r++ {
		nid := jc.reducerNode[r]
		// This reducer's partition share of every node's output; the share
		// from its own node stays local.
		remoteOut := (jc.totalOut - float64(res.NodeWorkload[nid])*cfg.App.OutputRatio()) * jc.shares[r]
		if remoteOut < 0 {
			remoteOut = 0
		}
		xfer := remoteOut / inj.NetRate(nid, topo.Node(nid).NetRate)
		res.ShuffleBytes += int64(remoteOut)
		res.ShuffleBytesPerReducer[r] = int64(remoteOut)
		end := res.FirstMapEnd + xfer
		if end < res.MapEnd {
			end = res.MapEnd
		}
		res.ShuffleDurations[r] = end - res.FirstMapEnd
		if end > shuffleEnd {
			shuffleEnd = end
		}
		if jc.rec.Enabled() {
			jc.rec.Record(trace.Event{T: res.FirstMapEnd, Type: trace.EvShuffleSpan,
				Node: int(nid), Block: -1, Attempt: r,
				Dur: end - res.FirstMapEnd, Bytes: int64(remoteOut)})
		}
	}
	res.ShuffleEnd = shuffleEnd
	jc.clock.AdvanceTo(res.ShuffleEnd)
	return nil
}

// planPartition fixes each reducer's share of the map output volume:
// the uniform 1/R unless a partitioner is configured. With one, it fixes
// the key → reducer assignment: plan from the per-key emitted bytes
// foldOutput left in the collector (in a real cluster the map tasks report
// these counts with their completion heartbeats, so no pass is charged on
// the simulated clock), convert the planned per-reducer loads into shares,
// and audit the plan into the Result and the trace.
func (jc *jobContext) planPartition() error {
	res, cfg := jc.res, jc.cfg
	jc.shares = make([]float64, cfg.Reducers)
	for r := range jc.shares {
		jc.shares[r] = 1 / float64(cfg.Reducers)
	}
	if jc.part == nil {
		return nil
	}
	freqs := make(map[string]int64, len(jc.coll.groups))
	for k, g := range jc.coll.groups {
		freqs[k] = g.bytes
	}
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

// runReduce runs per-reducer compute on its shuffle share and closes
// the job's timeline.
func runReduce(jc *jobContext) {
	res, cfg, inj, topo := jc.res, jc.cfg, jc.inj, jc.topo
	reduceEnd := res.ShuffleEnd
	res.ReduceWorkloads = make([]float64, cfg.Reducers)
	for r := 0; r < cfg.Reducers; r++ {
		nid := jc.reducerNode[r]
		vol := jc.totalOut * jc.shares[r]
		res.ReduceWorkloads[r] = vol
		end := res.ShuffleEnd + vol*reduceCostFactor/inj.CPURate(nid, topo.Node(nid).CPURate)
		if end > reduceEnd {
			reduceEnd = end
		}
		if jc.rec.Enabled() {
			jc.rec.Record(trace.Event{T: res.ShuffleEnd, Type: trace.EvReduceSpan,
				Node: int(nid), Block: -1, Attempt: r, Dur: end - res.ShuffleEnd})
		}
	}
	res.ReduceEnd = reduceEnd
	res.JobTime = reduceEnd
	res.AnalysisTime = reduceEnd - res.FilterEnd
	jc.clock.AdvanceTo(res.ReduceEnd)
}
