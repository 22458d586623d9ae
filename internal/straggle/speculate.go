package straggle

import (
	"fmt"
	"sort"

	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/stats"
	"datanet/internal/trace"
)

// SpecEngine is the quantile-trigger speculation engine: Decide owns the
// LATE-style launch rule, Allow and NoteLaunch the per-task and per-job
// budgets.
type SpecEngine struct {
	quantile float64
	perJob   int // max backups per job (quantile trigger)
	minGain  float64
	every    float64 // check cadence in simulated seconds

	launched []int     // per task, quantile-trigger launches
	total    int       // quantile-trigger launches job-wide
	finished []float64 // committed attempt end times, observation order
}

// NewSpecEngine builds the engine for a phase of `tasks` tasks at a
// validated quantile, with per-job budget max(1, tasks/4) and scan cadence
// and minimum gain derived from the engine's per-task overhead.
func NewSpecEngine(quantile float64, tasks int, taskOverhead float64) *SpecEngine {
	return &SpecEngine{
		quantile: quantile,
		perJob:   max(1, tasks/4),
		minGain:  minGainOverheads * taskOverhead,
		every:    checkOverheads * taskOverhead,
		launched: make([]int, tasks),
	}
}

// Interval is the speculation-scan cadence in simulated seconds.
func (e *SpecEngine) Interval() float64 { return e.every }

// ObserveFinish records one committed attempt's end time; completed
// attempts anchor the quantile so a lone straggler (no running peers)
// still triggers against the population that already finished.
func (e *SpecEngine) ObserveFinish(end float64) { e.finished = append(e.finished, end) }

// Allow reports whether the quantile budgets permit a backup of task.
func (e *SpecEngine) Allow(task int) bool {
	return e.launched[task] < perTask && e.total < e.perJob
}

// NoteLaunch burns budget for one launched backup.
func (e *SpecEngine) NoteLaunch(task int) {
	e.launched[task]++
	e.total++
}

// Projection is the master's estimate of one running attempt: with
// linear progress reports, observed rate × remaining work projects the
// finish instant (exact in the simulation — the limiting case of perfect
// progress reporting).
type Projection struct {
	// Unit is the task index.
	Unit int
	// Projected is the projected completion instant.
	Projected float64
}

// Decide applies the LATE-style rule at one check instant: an attempt is
// a straggler when its projected finish strictly exceeds the q-quantile
// of all *other* known finish times (completed attempts plus the other
// running projections — leave-one-out, so a lone tail attempt is judged
// against the population that already finished rather than against
// itself) and enough work remains for a backup to plausibly win.
// Returned units respect the budgets assuming every candidate launches;
// the caller re-validates per launch (a declined launch refunds budget
// simply by never being noted).
func (e *SpecEngine) Decide(now float64, running []Projection) []int {
	if len(running) == 0 {
		return nil
	}
	ends := make([]float64, 0, len(e.finished)+len(running))
	ends = append(ends, e.finished...)
	for _, p := range running {
		ends = append(ends, p.Projected)
	}
	if len(ends) < 2 {
		return nil // no peers to be slower than
	}
	sort.Float64s(ends)
	var out []int
	jobLeft := e.perJob - e.total
	loo := make([]float64, len(ends)-1)
	for _, p := range running {
		if jobLeft <= 0 {
			break
		}
		if p.Projected-now < e.minGain {
			continue
		}
		// Quantile of the multiset minus one instance of this projection.
		drop := sort.SearchFloat64s(ends, p.Projected)
		copy(loo, ends[:drop])
		copy(loo[drop:], ends[drop+1:])
		if p.Projected <= stats.NearestRank(loo, e.quantile) {
			continue
		}
		if e.launched[p.Unit] >= perTask {
			continue
		}
		out = append(out, p.Unit)
		jobLeft--
	}
	return out
}

// BarrierSpeculate is the barrier trigger: Hadoop-style speculative
// execution over the per-node analysis durations. For every straggler
// (duration > speculationFactor × median), the node with the shortest
// duration offloads part of the straggler's filtered fragments once it
// is free, re-reading them over the network. The fragment split f is
// chosen so both finish together:
//
//	d_straggler·f = helperFree + overhead + (1−f)·remoteDuration
//
// Durations are mutated in place; the number of helped stragglers is
// returned. This stays a *reactive* mitigation: it discovers the skew
// only at runtime and pays network re-reads, whereas DataNet prevents
// the skew.
//
// ids restricts speculation to live nodes. Degenerate topologies are
// handled explicitly: fewer than two candidates means no distinct helper
// exists, an all-zero duration profile has no stragglers (median 0), and
// a helper with non-positive effective rates would make backup attempts
// meaningless (division by zero), so all three return zero wins
// untouched. rec, when enabled, receives one task.speculate event per
// win, anchored at analysisStart on the straggler's track.
func BarrierSpeculate(topo *cluster.Topology, ids []cluster.NodeID, workload map[cluster.NodeID]int64, durations map[cluster.NodeID]float64, taskOverhead, appCostFactor float64, inj *faults.Injector, rec *trace.Recorder, analysisStart float64) int {
	const speculationFactor = 1.5
	if len(ids) < 2 {
		return 0
	}
	sorted := make([]float64, 0, len(ids))
	for _, id := range ids {
		sorted = append(sorted, durations[id])
	}
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return 0
	}
	// The fastest node hosts the backups, serially after its own work.
	var helper cluster.NodeID
	for i, id := range ids {
		if i == 0 || durations[id] < durations[helper] {
			helper = id
		}
	}
	helperFree := durations[helper]
	wins := 0
	// Deterministic order: worst straggler first.
	type cand struct {
		id  cluster.NodeID
		dur float64
	}
	var stragglers []cand
	for _, id := range ids {
		if id != helper && durations[id] > speculationFactor*median {
			stragglers = append(stragglers, cand{id, durations[id]})
		}
	}
	sort.Slice(stragglers, func(i, j int) bool {
		if stragglers[i].dur != stragglers[j].dur {
			return stragglers[i].dur > stragglers[j].dur
		}
		return stragglers[i].id < stragglers[j].id
	})
	h := topo.Node(helper)
	helperNet := inj.NetRate(helper, h.NetRate)
	helperCPU := inj.CPURate(helper, h.CPURate)
	if helperNet <= 0 || helperCPU <= 0 {
		return 0
	}
	for _, s := range stragglers {
		w := float64(workload[s.id])
		remote := w/helperNet + w*appCostFactor/helperCPU
		start := helperFree + taskOverhead
		if s.dur+remote <= 0 {
			continue
		}
		f := (start + remote) / (s.dur + remote)
		if f >= 1 {
			continue // the backup cannot beat the original
		}
		finish := s.dur * f
		durations[s.id] = finish
		helperFree = finish
		wins++
		if rec.Enabled() {
			ev := trace.At(analysisStart+finish, trace.EvSpeculate)
			ev.Node = int(s.id)
			ev.Detail = fmt.Sprintf("backup on node %d", helper)
			rec.Record(ev)
		}
	}
	return wins
}
