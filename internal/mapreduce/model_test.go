package mapreduce_test

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/sched"
)

// The engine reference model: the filter phase under the oracle detector,
// mitigation off, restated as plainly as it can be said — one loop over a
// flat event list, no kernel, heap or per-slot index — by the written rules
// of the pull protocol (Algorithm 1's "a worker on cn_i asks for a task"),
// the cost model and the oracle's crash response. It shares with the engine
// only its inputs, so an engine that agrees with it bit for bit schedules
// by these rules, however it is built.

// modelEvent is one pending event: a slot's poll (run nil), an attempt's
// end, or a crash instant. Events are taken in (at, prio, node, slot)
// order, ties to the earlier posted: the list keeps post order.
type modelEvent struct {
	at           float64
	prio         int // -1 for a crash instant: faults land before any slot activity of their instant
	node         cluster.NodeID
	slot         int
	run          *mapreduce.TaskStat
	crash, stale bool // stale: the end of an attempt a crash voided
}

// modelRetry is a failed task waiting out its backoff.
type modelRetry struct {
	readyAt float64
	idx     int
}

// model is one run of the filter phase: its inputs — what Run hands the
// phase — and its state. res gathers the phase's part of a Result: the
// committed attempts in commit order and the barrier's counters.
type model struct {
	tasks    []sched.Task // one per block, in block order: a task's Index is its position
	matched  []int64      // the target sub-dataset's bytes per block
	picker   sched.Factory
	inj      *faults.Injector
	fs       *hdfs.FileSystem // the model's own clone: its repair passes mutate it
	retry    faults.RetryPolicy
	overhead float64 // seconds of task startup

	topo      *cluster.Topology
	pick      sched.Picker
	events    []*modelEvent
	retries   []modelRetry
	attempts  []int // per task
	res       mapreduce.Result
	decisions []string // every dispatch as "node block rule"
}

// run runs the phase. It returns the phase's part of a Result and the
// decisions, or the job's error and the decisions made until it failed.
func (m *model) run() (*mapreduce.Result, []string, error) {
	m.topo, m.attempts = m.fs.Topology(), make([]int, len(m.tasks))
	m.res.NodeWorkload = map[cluster.NodeID]int64{}
	m.pick = m.picker(slices.Clone(m.tasks), m.topo)
	for id := range cluster.NodeID(m.topo.N()) {
		for slot := range m.topo.Node(id).Slots {
			m.post(&modelEvent{node: id, slot: slot})
		}
	}
	crashes := m.inj.Crashes()
	for i, c := range crashes {
		if i == 0 || c.At != crashes[i-1].At {
			m.post(&modelEvent{at: c.At, prio: -1, crash: true})
		}
	}
	// The phase runs while some slot event is pending; crash instants left
	// over then belong to the analysis phase.
	var err error
	for err == nil && slices.ContainsFunc(m.events, func(e *modelEvent) bool { return !e.crash }) {
		e := m.next()
		switch {
		case e.crash:
			if m.unfinished() > 0 {
				err = m.crash(e.at)
			}
		case !e.stale:
			if e.run != nil {
				m.commit(*e.run)
			}
			m.serve(e.node, e.slot, e.at)
		}
	}
	if n := m.unfinished(); err == nil && n > 0 {
		err = fmt.Errorf("%w: %d filter tasks unfinished", mapreduce.ErrNoLiveNodes, n)
	}
	return &m.res, m.decisions, err
}

func (m *model) post(e *modelEvent) { m.events = append(m.events, e) }

// next removes and returns the least pending event, found by a linear scan
// (MinFunc returns the first of equals).
func (m *model) next() *modelEvent {
	e := slices.MinFunc(m.events, func(a, b *modelEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.prio, b.prio), cmp.Compare(a.node, b.node), cmp.Compare(a.slot, b.slot))
	})
	m.events = slices.DeleteFunc(m.events, func(x *modelEvent) bool { return x == e })
	return e
}

// done reports whether task li has a committed output that still exists;
// unfinished counts the tasks without one.
func (m *model) done(li int) bool {
	return slices.ContainsFunc(m.res.Tasks, func(st mapreduce.TaskStat) bool { return st.Task.Index == li && !st.Lost })
}

func (m *model) unfinished() (n int) {
	for li := range m.tasks {
		if !m.done(li) {
			n++
		}
	}
	return n
}

// serve is one slot asking for work at now.
func (m *model) serve(node cluster.NodeID, slot int, now float64) {
	if m.inj.DeadAt(node, now) {
		if rj, ok := m.inj.RejoinAfter(node, now); ok {
			m.post(&modelEvent{at: rj, node: node, slot: slot})
		}
		return // a dead node's slot polls again at its rejoin, or retires
	}
	if m.unfinished() == 0 {
		return
	}
	if li, rule, ok := m.acquire(node, now); ok {
		m.dispatch(node, slot, li, rule, now)
		return
	}
	next := now + m.overhead // a declined pull asks again one heartbeat later
	if m.pick.Remaining() == 0 {
		// A drained picker parks until a retry matures, an attempt ends or
		// a crash lands; with no retry or crash to come, it retires.
		wake, coming := math.Inf(1), len(m.retries) > 0
		for _, r := range m.retries {
			wake = min(wake, r.readyAt)
		}
		for _, e := range m.events {
			if e.crash || e.run != nil && !e.stale {
				wake = min(wake, e.at)
			}
			coming = coming || e.crash
		}
		if !coming {
			return
		}
		next = max(next, wake)
	}
	m.post(&modelEvent{at: next, node: node, slot: slot})
}

// acquire takes a matured retry with a replica on node, then the picker's
// choice, then any matured retry.
func (m *model) acquire(node cluster.NodeID, now float64) (int, string, bool) {
	if li, ok := m.takeRetry(now, func(li int) bool { return slices.Contains(m.fs.Locations(m.tasks[li].Block), node) }); ok {
		return li, "retry.local-replica", true
	}
	if t, rule, ok := m.pick.Next(node); ok {
		return t.Index, rule, true
	}
	if li, ok := m.takeRetry(now, func(int) bool { return true }); ok {
		return li, "retry.remote", true
	}
	return 0, "", false
}

// takeRetry removes the first matured retry that suits, in (readyAt, task)
// order.
func (m *model) takeRetry(now float64, suits func(li int) bool) (int, bool) {
	slices.SortFunc(m.retries, func(a, b modelRetry) int {
		return cmp.Or(cmp.Compare(a.readyAt, b.readyAt), cmp.Compare(a.idx, b.idx))
	})
	for i, r := range m.retries {
		if r.readyAt <= now && suits(r.idx) {
			m.retries = slices.Delete(m.retries, i, i+1)
			return r.idx, true
		}
	}
	return 0, false
}

// dispatch starts an attempt of task li on the slot. It costs the task
// overhead, the block's bytes at the disk rate — plus the NIC rate when
// no replica is local, halved when none shares the rack — and the matched
// bytes' filter cost at the CPU rate, every rate as the faults leave it.
func (m *model) dispatch(node cluster.NodeID, slot, li int, rule string, now float64) {
	t, n, locs := m.tasks[li], m.topo.Node(node), m.fs.Locations(m.tasks[li].Block)
	m.attempts[li]++
	st := &mapreduce.TaskStat{Task: t, Node: node, Start: now, Matched: m.matched[li],
		Local: slices.Contains(locs, node), Attempt: m.attempts[li]}
	st.Scan = float64(t.Bytes) / m.inj.DiskRate(node, n.DiskRate)
	if !st.Local {
		rate := m.inj.NetRate(node, n.NetRate)
		if !slices.ContainsFunc(locs, func(r cluster.NodeID) bool { return m.topo.SameRack(r, node) }) {
			rate /= mapreduce.CrossRackPenalty
		}
		st.Scan += float64(t.Bytes) / rate
	}
	st.Compute = float64(st.Matched) * mapreduce.FilterCostFactor / m.inj.CPURate(node, n.CPURate)
	st.End = now + m.overhead + st.Scan + st.Compute
	m.decisions = append(m.decisions, fmt.Sprintf("%d %d %s", node, t.Block, rule))
	m.post(&modelEvent{at: st.End, node: node, slot: slot, run: st})
}

// commit stores the attempt's output on its node.
func (m *model) commit(st mapreduce.TaskStat) {
	m.res.Tasks = append(m.res.Tasks, st)
	m.res.NodeWorkload[st.Node] += st.Matched
	m.res.FilterEnd = max(m.res.FilterEnd, st.End)
	if st.Local {
		m.res.LocalTasks++
	} else {
		m.res.RemoteTasks++
	}
}

// crash applies one crash instant: one repair pass runs over every node
// dead at t; then, victim by victim in node order, the victim's running
// attempts are voided (their slots poll again at its rejoin) and requeued
// with the outputs stored on it. A block left with no replica fails the
// job unless its output survives.
func (m *model) crash(t float64) error {
	var group, dead []cluster.NodeID
	for _, c := range m.inj.Crashes() {
		if c.At == t {
			group = append(group, c.Node)
		}
	}
	slices.Sort(group)
	for id := range cluster.NodeID(m.topo.N()) {
		if m.inj.DeadAt(id, t) {
			dead = append(dead, id)
		}
	}
	moved, lost := m.fs.FailNodes(dead)
	m.res.ReplicasRepaired += moved
	for _, d := range group {
		m.res.NodeCrashes++
		rj, rejoins := m.inj.RejoinAfter(d, t)
		running := slices.DeleteFunc(slices.Clone(m.events), func(e *modelEvent) bool { return e.run == nil || e.stale || e.node != d })
		slices.SortFunc(running, func(a, b *modelEvent) int { return cmp.Compare(a.slot, b.slot) })
		for _, e := range running {
			e.stale = true
			if rejoins {
				m.post(&modelEvent{at: rj, node: d, slot: e.slot})
			}
			if err := m.requeue(e.run.Task.Index, t); err != nil {
				return err
			}
		}
		for k := range m.res.Tasks {
			if st := &m.res.Tasks[k]; st.Node == d && !st.Lost {
				st.Lost = true
				m.res.NodeWorkload[d] -= st.Matched
				m.res.LostOutputs++
				if err := m.requeue(st.Task.Index, t); err != nil {
					return err
				}
			}
		}
	}
	for _, b := range lost {
		if li := slices.IndexFunc(m.tasks, func(t sched.Task) bool { return t.Block == b }); li >= 0 && !m.done(li) {
			return &mapreduce.BlockFailure{Block: b, Attempts: m.attempts[li], Cause: mapreduce.ErrDataLost}
		}
	}
	return nil
}

// requeue retries task li after the policy's backoff, unless its block has
// no replica left or its attempts are spent.
func (m *model) requeue(li int, now float64) error {
	if len(m.fs.Locations(m.tasks[li].Block)) == 0 {
		return &mapreduce.BlockFailure{Block: m.tasks[li].Block, Attempts: m.attempts[li], Cause: mapreduce.ErrDataLost}
	}
	if m.attempts[li] >= m.retry.MaxAttempts {
		return &mapreduce.BlockFailure{Block: m.tasks[li].Block, Attempts: m.attempts[li], Cause: mapreduce.ErrRetriesExhausted}
	}
	m.res.TasksRetried++
	m.retries = append(m.retries, modelRetry{now + m.retry.Delay(m.attempts[li]), li})
	return nil
}
