package mapreduce

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
	"datanet/internal/sim"
	"datanet/internal/trace"
)

// Crash physics and belief: what a crash destroys at its instant, and the
// master's response once it believes the node dead — in the filter phase
// and, for crashes after its barrier, in the analysis phase.

// onCrash delivers one group of simultaneous crashes: the physics of every
// victim first, then the master's response for the victims it learns of
// at once — all of them under the oracle (the zero-latency detector); under
// a detector only nodes it had already written off (a false suspicion
// turning true, or crash–rejoin–crash within one suspicion: no further
// beat will arrive to mature a new timeout), while the rest wait for
// their suspicion or re-registration beat. Once the last output is
// committed and no response can re-open the barrier, later crashes belong
// to the analysis phase (recoverAnalysis) and are left unapplied for it.
func (s *filterSim) onCrash(ev *sim.Event) error {
	if s.phaseComplete() && len(s.pending) == 0 {
		return nil
	}
	t0 := ev.At
	var group []cluster.NodeID
	for s.crashIdx < len(s.crashes) && s.crashes[s.crashIdx].At == t0 {
		group = append(group, s.crashes[s.crashIdx].Node)
		s.crashIdx++
	}
	sort.Slice(group, func(i, j int) bool { return group[i] < group[j] })
	var known []cluster.NodeID
	for _, d := range group {
		s.applyCrashPhysics(d, t0)
		if s.det == nil || s.health.Suspected(d) {
			known = append(known, d)
		}
	}
	return s.respond(known, t0)
}

// applyCrashPhysics applies the *physical* half of one node's crash:
// attempts running on the victim die, its slots stop requesting work, and
// its stored outputs are (silently, for now) destroyed. The master's
// belief — requeues, re-replication, un-committing outputs, latency
// accounting — is respond's half.
func (s *filterSim) applyCrashPhysics(d cluster.NodeID, t0 float64) {
	s.res.NodeCrashes++
	rejoinAt, rejoins := s.inj.RejoinAfter(d, t0)
	s.rec.Record(trace.Event{T: t0, Type: trace.EvNodeCrash, Node: int(d), Block: -1})
	if rejoins {
		s.rec.Record(trace.Event{T: rejoinAt, Type: trace.EvNodeRejoin, Node: int(d), Block: -1})
	}
	// Slot revival is where the modes differ in what they model. A
	// detector's master hears from a rebooted node at its re-registration
	// beat, which revives every slot (onDetBeat). Under the oracle a slot
	// that lost an attempt asks for work again at the rejoin instant, and
	// an idle slot finds its node dead on its next poll (serveSlot).
	s.slotsDown[d] = s.det != nil
	at, crashed := s.pendingAt(d)
	if !crashed { // else latency keeps counting from the first unresponded crash
		s.pending = slices.Insert(s.pending, at, pendingCrash{node: d, at: t0})
	}
	for slot := 0; slot < s.topo.Node(d).Slots; slot++ {
		ord := s.slotBase[d] + slot
		r := s.running[ord]
		if r == nil && s.det == nil {
			continue
		}
		s.gens[ord]++ // every queued event of the slot is now stale
		if r == nil {
			continue
		}
		if s.det == nil && rejoins {
			s.postSlotFree(rejoinAt, d, slot, s.gens[ord])
		}
		r.ev.Hide() // a dead attempt's end no longer creates work
		s.untrack(r)
		s.unassign(d, r, trace.Event{T: t0, Type: trace.EvTaskVoided})
		if !s.done(r.li) {
			s.pending[at].voided = append(s.pending[at].voided, r.li)
		}
	}
}

// pendingAt finds the node's outstanding crash in s.pending (sorted by
// node): its position, or where it would be inserted.
func (s *filterSim) pendingAt(id cluster.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.pending, id, func(p pendingCrash, id cluster.NodeID) int {
		return cmp.Compare(p.node, id)
	})
}

// believedDead is the one predicate behind every placement of work or
// bytes: the master will not use a node at time t that is physically down
// (a copy or task aimed at a corpse fails at once) or that the health
// table suspects — even falsely. Under the oracle the table is nil and
// this is physics; under a detector a physically dead node is always
// pending or suspected when a handler runs (crashes are delivered first),
// so the physical half adds nothing there until the filter kernel stops.
func (s *filterSim) believedDead(id cluster.NodeID, t float64) bool {
	return s.inj.DeadAt(id, t) || s.health.Suspected(id)
}

// believed lists, in node order, the nodes whose believedDead at t is dead.
func (s *filterSim) believed(t float64, dead bool) []cluster.NodeID {
	var ids []cluster.NodeID
	for id := range cluster.NodeID(s.topo.N()) {
		if s.believedDead(id, t) == dead {
			ids = append(ids, id)
		}
	}
	return ids
}

// noteLatency reports one crash→response gap under a detector; the
// oracle's is zero by construction and not reported.
func (s *filterSim) noteLatency(d cluster.NodeID, crashAt, respAt float64) {
	if s.det == nil {
		return
	}
	s.res.DetectionLatency = append(s.res.DetectionLatency, respAt-crashAt)
	s.rec.Record(trace.Event{T: respAt, Type: trace.EvDetectLatency, Node: int(d), Block: -1, Dur: respAt - crashAt})
}

// repair runs the name-node's repair pass at t over the dead nodes and
// records it: a summary of the replicas it re-created and one event per
// block it found lost. It returns the blocks this pass lost.
func (s *filterSim) repair(t float64, dead []cluster.NodeID) []hdfs.BlockID {
	moved, lost := s.cfg.FS.FailNodes(dead)
	if moved > 0 {
		s.rec.Record(trace.Event{T: t, Type: trace.EvRereplicate, Node: -1, Block: -1, Count: moved, Detail: "crash-repair"})
	}
	for _, id := range lost {
		s.rec.Record(trace.Event{T: t, Type: trace.EvBlockLost, Node: -1, Block: int(id)})
	}
	s.res.ReplicasRepaired += moved
	return lost
}

// respond is the master's reaction to nodes it now believes dead (or, for
// a re-registration, knows rebooted): the name-node repairs replication —
// once for the whole group, so blocks losing all replicas at once are
// detected as unrecoverable — the attempts and outputs lost with the
// nodes are requeued, and the crash→response gap is the detection
// latency.
func (s *filterSim) respond(group []cluster.NodeID, t float64) error {
	if len(group) == 0 {
		return nil
	}
	s.layoutDirty = true
	for _, d := range group {
		at, _ := s.pendingAt(d)
		s.noteLatency(d, s.pending[at].at, t)
	}
	// The repair pass excludes every node that cannot hold replicas right
	// now: the ones the master believes dead plus crashed nodes whose
	// response is pending (the group included) — a copy targeted at a corpse
	// fails at the transport layer immediately, so the name-node skips them
	// without needing to have suspected them yet.
	dead := s.believed(t, true)
	for _, p := range s.pending {
		dead = append(dead, p.node)
	}
	lost := s.repair(t, dead)
	for _, d := range group {
		// The attempts that died with the node are requeued now — the master
		// just learned they will never report back. The rest of the group's
		// stay pending: a k-of-n group re-opened below leaves them their units.
		at, _ := s.pendingAt(d)
		for _, li := range s.pending[at].voided {
			if s.done(li) {
				continue // a duplicate finished the task in the meantime
			}
			if err := s.requeue(li, t, "crash-voided"); err != nil {
				return err
			}
		}
		s.pending = slices.Delete(s.pending, at, at+1)
		// Committed outputs stored on the victim are discovered destroyed.
		for _, r := range s.byNode[d] {
			if s.trackStat[r.li] >= 0 {
				s.res.Tasks[s.trackStat[r.li]].Lost = true
				s.trackStat[r.li] = -1
			}
			if !s.coded.isParity(r.li) {
				s.res.NodeWorkload[d] -= r.matched
				s.nodeTasks[d]--
			}
			s.live[r.li]--
			s.doneCount--
			s.coded.uncommit(s, r.li, t)
			s.res.LostOutputs++
			s.unassign(d, r, trace.Event{T: t, Type: trace.EvOutputLost, Bytes: r.matched})
			if err := s.requeue(r.li, t, "output-lost"); err != nil {
				return err
			}
		}
		s.byNode[d] = nil
	}
	// Blocks with no surviving replica are gone for good; the job fails
	// (typed) unless their filter output survives on a live node or the
	// block's k-of-n group is satisfied (its fragment is reconstructable).
	// Blocks skipped by the meta-data are not needed at all.
	for _, b := range lost {
		if li, ok := s.byBlock[b]; ok && !s.redundant(li) {
			return &BlockFailure{Block: b, Attempts: s.attempts[li], Cause: ErrDataLost}
		}
	}
	return nil
}

// onDetBeat is the detector's Beat hook. A beat from a node with an
// outstanding crash response is its re-registration: the node rejoined
// (perhaps before the timeout ever matured) and its empty state is how
// the master learns what died with it. Downed slots revive here — the
// rejoined tracker starts requesting work again.
func (s *filterSim) onDetBeat(id cluster.NodeID, t float64) error {
	if _, crashed := s.pendingAt(id); crashed {
		if err := s.respond([]cluster.NodeID{id}, t); err != nil {
			return err
		}
	}
	if s.slotsDown[id] {
		s.slotsDown[id] = false
		for slot := 0; slot < s.topo.Node(id).Slots; slot++ {
			ord := s.slotBase[id] + slot
			s.gens[ord]++
			s.postSlotFree(t, id, slot, s.gens[ord])
		}
	}
	s.maybeSettle()
	return nil
}

// onSuspect is the detector's Suspect hook: the master now believes the
// node dead. For a real crash this is the (late) response; for a false
// suspicion the node is alive and still computing — the master stops
// assigning it work and speculates duplicates of whatever it believes
// lost in flight, first finisher wins.
func (s *filterSim) onSuspect(id cluster.NodeID, t float64) error {
	s.rec.Record(trace.Event{T: t, Type: trace.EvNodeSuspect, Node: int(id), Block: -1})
	if _, crashed := s.pendingAt(id); crashed {
		if err := s.respond([]cluster.NodeID{id}, t); err != nil {
			return err
		}
	} else {
		s.res.FalseSuspicions++
		for _, r := range s.running[s.slotBase[id]:s.slotBase[id+1]] {
			if r != nil {
				s.requeueDup(r.li, t)
			}
		}
	}
	s.maybeSettle()
	return nil
}

// onClear is the detector's Clear hook: a beat proved a suspected node
// alive (rejoin or false alarm); it becomes assignable again.
func (s *filterSim) onClear(id cluster.NodeID, t float64) error {
	s.rec.Record(trace.Event{T: t, Type: trace.EvNodeClear, Node: int(id), Block: -1})
	return nil
}

// recoverAnalysis handles crashes that strike after the filter barrier:
// the victim's locally stored filtered fragments are destroyed
// mid-analysis, so a surviving node re-reads the source blocks (remote
// scan), re-filters them, and re-runs their analysis serially after its
// own work. durations is mutated in place; analysisStart anchors the
// phase's timeline. Crashes at one instant are handled one at a time, so
// a fragment's source block counts as gone when no replica is left, not
// when this crash's repair pass is the one that lost it: the pass reports
// a block lost only once, to the first victim of the instant.
func (s *filterSim) recoverAnalysis(analysisStart float64, durations map[cluster.NodeID]float64) error {
	for s.crashIdx < len(s.crashes) {
		c := s.crashes[s.crashIdx]
		s.crashIdx++
		d := c.Node
		s.layoutDirty = true
		// A detector's master learns of the crash only when the victim's
		// beat chain goes quiet past its timeout — recovery cannot start
		// before that (the oracle, a nil detector, responds at the crash
		// instant).
		respAt := s.det.ResponseAt(d, c.At)
		s.rec.Record(trace.Event{T: c.At, Type: trace.EvNodeCrash, Node: int(d), Block: -1, Detail: "analysis-phase"})
		s.noteLatency(d, c.At, respAt)
		s.repair(c.At, s.believed(c.At, true))
		s.res.NodeCrashes++
		if c.At >= analysisStart+durations[d] {
			// The node finished its analysis (and holds no pending filter
			// fragments); its map output is already accounted for. Reducer
			// placement later avoids dead nodes.
			continue
		}
		w, nt := s.res.NodeWorkload[d], s.nodeTasks[d]
		if w == 0 && nt == 0 {
			continue // nothing stored here (e.g. it crashed during filter too)
		}
		// The fragments' source blocks must still exist somewhere.
		for _, r := range s.byNode[d] {
			if s.replicasGone(r.li) {
				return &BlockFailure{Block: r.task.Block, Attempts: s.attempts[r.li], Cause: ErrDataLost}
			}
		}
		var blockBytes int64
		for _, r := range s.byNode[d] {
			s.live[r.li]-- // destroyed with d; the helper's redo commits it again
			if s.coded.isParity(r.li) {
				continue // parity blobs are not part of the analysis share
			}
			blockBytes += r.task.Bytes
		}
		// Recovery node: the node believed live that frees up earliest.
		helper := cluster.NodeID(-1)
		for _, id := range s.believed(c.At, false) {
			if helper == -1 || durations[id] < durations[helper] ||
				(durations[id] == durations[helper] && id < helper) {
				helper = id
			}
		}
		if helper == -1 {
			return fmt.Errorf("%w: analysis workload of node %d unrecoverable", ErrNoLiveNodes, d)
		}
		hn := s.topo.Node(helper)
		redo := float64(nt)*s.cfg.TaskOverhead +
			float64(blockBytes)/s.inj.NetRate(helper, hn.NetRate) +
			float64(w)*filterCostFactor/s.inj.CPURate(helper, hn.CPURate) +
			float64(w)*s.cfg.App.CostFactor()/s.inj.CPURate(helper, hn.CPURate)
		// The helper cannot react before the master knows.
		start := max(respAt, analysisStart+durations[helper])
		durations[helper] = start + redo - analysisStart
		durations[d] = min(durations[d], max(c.At-analysisStart, 0))
		if s.rec.Enabled() {
			for _, r := range s.byNode[d] {
				s.rec.Record(trace.Event{T: c.At, Type: trace.EvOutputLost,
					Node: int(d), Block: int(r.task.Block), Attempt: r.attempt, Bytes: r.matched})
				s.noteRetry(c.At, r.task.Block, r.attempt, "analysis-recover")
			}
			s.rec.Record(trace.Event{T: start, Type: trace.EvAnalysisRecover,
				Node: int(helper), Dur: redo, Bytes: w, Count: nt,
				Detail: fmt.Sprintf("redo node %d share", d), Block: -1})
		}
		s.res.NodeWorkload[helper] += w
		s.res.NodeWorkload[d] = 0
		s.nodeTasks[helper] += nt
		s.nodeTasks[d] = 0
		for _, r := range s.byNode[d] {
			s.live[r.li]++
			s.byNode[helper] = append(s.byNode[helper], r)
		}
		s.byNode[d] = nil
		s.res.TasksRetried += nt
		s.res.LostOutputs += nt
	}
	return nil
}
