package mapreduce

import (
	"datanet/internal/cluster"
	"datanet/internal/sim"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// Speculation: duplicates of attempts the master believes lost on a
// suspected node, and quantile-trigger backups of stragglers. Both are
// retries marked dup, and neither ever fails the job.

// mayDuplicate reports whether the unit may get a duplicate: it is not
// done, has none outstanding, is under the attempt cap and still has a
// replica to read. Otherwise the master simply declines.
func (s *filterSim) mayDuplicate(li int) bool {
	return !s.done(li) && !s.dupOutstanding[li] &&
		s.attempts[li] < s.retry.MaxAttempts && !s.replicasGone(li)
}

// requeueDup schedules a speculative duplicate of a task the master
// believes lost on a suspected-but-alive node. Unlike requeue it never
// fails the job: the original attempt is still physically running and may
// yet finish.
func (s *filterSim) requeueDup(li int, t float64) {
	if !s.mayDuplicate(li) {
		return
	}
	s.dupOutstanding[li] = true
	s.res.TasksRetried++
	s.noteRetry(t, s.tasks[li].Block, s.attempts[li], "suspect-duplicate")
	s.postRetry(retryItem{readyAt: t + s.retry.Delay(s.attempts[li]), li: li, dup: true})
}

// postSpecCheck queues the next quantile-speculation scan. Priority 3
// orders the scan after slot activity, beats and timeouts at the same
// instant, so it sees the freshest attempt state.
func (s *filterSim) postSpecCheck(at float64) {
	s.kern.Post(sim.Event{At: at, Kind: evSpecCheck, Prio: 3})
}

// onSpecCheck is one quantile-trigger scan: project every running
// attempt's finish (the attempt's exact end — the limiting case of
// perfect progress reports), ask the engine which are stragglers, and
// launch budgeted backups. The chain reposts itself until the phase
// completes or no slot can ever serve again.
func (s *filterSim) onSpecCheck(ev *sim.Event) error {
	if s.phaseComplete() || s.slotLive == 0 {
		return nil // chain ends; nothing left to speculate for
	}
	now := ev.At
	for _, li := range s.spec.Decide(now, s.projections()) {
		s.launchQuantileDup(li, now)
	}
	s.postSpecCheck(now + s.spec.Interval())
	return nil
}

// projections lists the running attempts of unfinished units in (node,
// slot) order, each projected to finish at its exact end.
func (s *filterSim) projections() []straggle.Projection {
	projs := make([]straggle.Projection, 0, len(s.running))
	for _, r := range s.running {
		if r != nil && !s.done(r.li) {
			projs = append(projs, straggle.Projection{Unit: r.li, Projected: r.end})
		}
	}
	return projs
}

// slowestNode is the node running the unit's slowest current attempt (the
// first in (node, slot) order among equals), -1 when none is in flight.
func (s *filterSim) slowestNode(li int) cluster.NodeID {
	avoid, worst := cluster.NodeID(-1), (*runAttempt)(nil)
	for _, r := range s.inflight[li] {
		if worst == nil || r.end > worst.end || (r.end == worst.end && s.ord(r) < s.ord(worst)) {
			avoid, worst = r.node, r
		}
	}
	return avoid
}

// launchQuantileDup launches one quantile-trigger backup: a duplicate
// retry, ready immediately (a straggler needs the backup now, not after
// a failure backoff), that must land away from the straggling original.
// Over the speculation budget the master declines too.
func (s *filterSim) launchQuantileDup(li int, now float64) {
	if !s.mayDuplicate(li) || !s.spec.Allow(li) {
		return
	}
	avoid := s.slowestNode(li)
	s.dupOutstanding[li] = true
	s.spec.NoteLaunch(li)
	s.res.SpeculativeLaunches++
	s.rec.Record(trace.Event{T: now, Type: trace.EvSpeculate, Node: int(avoid),
		Block: int(s.tasks[li].Block), Attempt: s.attempts[li], Detail: "quantile-trigger"})
	s.postRetry(retryItem{readyAt: now, li: li, dup: true, quant: true, avoid: avoid})
}
