package sched

import (
	"cmp"
	"fmt"
	"slices"

	"datanet/internal/cluster"
)

// Input is a job's tasks in the form the locality, LPT and Algorithm 1
// pullers are built from: the tasks that weigh something, listed, and the
// zero class, counted. A sub-dataset is absent from most blocks (§V-B), so
// most of a job's tasks are in the zero class, and no Task need exist for
// them: a puller hands out task positions, and only the picker over a
// []Task (the exported constructors) looks the Task up.
type Input struct {
	// Weighted lists the positions whose weight is not zero, ascending.
	Weighted []Weighted
	// Zeros counts the zero class: the positions 0..len(Weighted)+Zeros-1
	// that Weighted does not list.
	Zeros int
	// Replicas returns the nodes that hold a replica of the task at a
	// position. The slice is read before the next call, which may
	// overwrite it.
	Replicas func(pos int) []cluster.NodeID
}

// Weighted is a task of non-zero weight, by its position in the job.
type Weighted struct {
	Pos    int
	Weight int64
}

func (in Input) len() int { return len(in.Weighted) + in.Zeros }

// input describes tasks as an Input.
func input(tasks []Task) Input {
	in := Input{Replicas: func(i int) []cluster.NodeID { return tasks[i].Locations }}
	for i := range tasks {
		if tasks[i].Weight == 0 {
			in.Zeros++
		}
	}
	in.Weighted = make([]Weighted, 0, len(tasks)-in.Zeros)
	for i := range tasks {
		if w := tasks[i].Weight; w != 0 {
			in.Weighted = append(in.Weighted, Weighted{Pos: i, Weight: w})
		}
	}
	return in
}

// rule indexes ruleNames: the rule a pull reports, one byte per planned
// task where a puller records it.
type rule uint8

const (
	ruleArgminLocal rule = iota
	ruleNoLocalReplica
	ruleLine12Assist
	ruleStealLocal
	ruleStealGlobal
	ruleLocalityLocal
	ruleLocalityRemote
	ruleLPTLocal
	ruleLPTRemote
	ruleDelayLocal
	ruleDelayRemote
	ruleRandomLocal
	ruleRandomRemote
	ruleMaxflowPlan
	ruleMaxflowSteal
)

var ruleNames = [...]string{
	ruleArgminLocal:    "algo1.argmin-local",
	ruleNoLocalReplica: "algo1.no-local-replica",
	ruleLine12Assist:   "algo1.line12-assist",
	ruleStealLocal:     "algo1.steal-local",
	ruleStealGlobal:    "algo1.steal-global",
	ruleLocalityLocal:  "locality.local-fifo",
	ruleLocalityRemote: "locality.remote-fifo",
	ruleLPTLocal:       "lpt.local",
	ruleLPTRemote:      "lpt.remote",
	ruleDelayLocal:     "delay.local-fifo",
	ruleDelayRemote:    "delay.remote-after-wait",
	ruleRandomLocal:    "random.local",
	ruleRandomRemote:   "random.remote",
	ruleMaxflowPlan:    "maxflow.plan",
	ruleMaxflowSteal:   "maxflow.steal",
}

// puller is a scheduler: it answers a node's pull with a task position and
// the rule that chose it. A task is left whenever it is asked; ok is false
// only when it declines the node for now (delay scheduling).
type puller interface {
	pull(node cluster.NodeID) (pos int, r rule, ok bool)
}

// picker is the one Picker: it serves a puller's positions as the
// caller's Tasks, counts what is left, and names the rule, behind prefix.
type picker struct {
	name, prefix string
	puller       puller
	tasks        []Task
	remain       int
}

// serve returns the Picker named name over p's pulls of tasks.
func serve(name string, p puller, tasks []Task) *picker {
	return &picker{name: name, puller: p, tasks: tasks, remain: len(tasks)}
}

func (p *picker) Name() string   { return p.name }
func (p *picker) Remaining() int { return p.remain }

func (p *picker) Next(node cluster.NodeID) (Task, string, bool) {
	if p.remain == 0 {
		return Task{}, "", false
	}
	i, r, ok := p.puller.pull(node)
	if !ok {
		return Task{}, "", false
	}
	p.remain--
	return p.tasks[i], p.prefix + ruleNames[r], true
}

// Plan is the policy's assignment of in over topo's nodes. The locality,
// LPT and Algorithm 1 pullers are drained under the pull protocol, one
// pull per node per round in node order — the deterministic equivalent of
// equally-fast single-slot nodes. Max-flow's assignment is taken as
// computed, node by node: draining its puller would steal and change it.
// order lists the task positions in the order they were assigned, and
// node[pos] is the node a position went to.
func (p Policy) Plan(in Input, topo *cluster.Topology) (order, node []int32, err error) {
	m := topo.N()
	order, node = make([]int32, 0, in.len()), make([]int32, in.len())
	var pk puller
	switch p {
	case Locality, LPT:
		pk = newLocality(in, p == LPT)
	case DataNet, CapacityAware:
		pk = newDataNet(in, topo, p == CapacityAware)
	case MaxFlow:
		for n, tasks := range flowAssignment(in, m) {
			for _, j := range tasks {
				order, node[j] = append(order, int32(j)), int32(n)
			}
		}
		return order, node, nil
	default:
		return nil, nil, p.Validate()
	}
	for len(order) < len(node) {
		before := len(order)
		for n := 0; n < m && len(order) < len(node); n++ {
			if j, _, ok := pk.pull(cluster.NodeID(n)); ok {
				order, node[j] = append(order, int32(j)), int32(n)
			}
		}
		if len(order) == before {
			return nil, nil, fmt.Errorf("sched: scheduler %q stalled with %d tasks left", p, len(node)-len(order))
		}
	}
	return order, node, nil
}

// ranking is a job's task positions heaviest first: by (weight ↓,
// position ↑).
type ranking struct {
	order []int32
	// heavy is the non-zero weights in rank order: the first pos are
	// positive and lead order, the rest are negative and end it. The zero
	// class lies between them, in position order, where a full sort would
	// put it.
	heavy []Weighted
	pos   int
	// heavyClass numbers heavy's weight classes in rank order, 0 the
	// heaviest; the zero class is numbered after the positive ones.
	heavyClass []int32
	zeroClass  int
}

// heaviestFirst ranks in's positions. Only the non-zero weights are
// sorted; the zero class, most of a sparse job, is laid out by walking the
// gaps between them.
func heaviestFirst(in Input) ranking {
	n := in.len()
	r := ranking{order: make([]int32, n), heavy: slices.Clone(in.Weighted)}
	slices.SortFunc(r.heavy, func(a, b Weighted) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		return a.Pos - b.Pos
	})
	for r.pos < len(r.heavy) && r.heavy[r.pos].Weight > 0 {
		r.pos++
	}
	tail := n - len(r.heavy) + r.pos // the first negative rank
	for k, w := range r.heavy {
		if k < r.pos {
			r.order[k] = int32(w.Pos)
		} else {
			r.order[tail+k-r.pos] = int32(w.Pos)
		}
	}
	r.heavyClass = make([]int32, len(r.heavy))
	c := -1
	for k, w := range r.heavy {
		if k == r.pos {
			c++
			r.zeroClass = c
		}
		if k == 0 || k == r.pos || w.Weight != r.heavy[k-1].Weight {
			c++
		}
		r.heavyClass[k] = int32(c)
	}
	if r.pos == len(r.heavy) {
		r.zeroClass = c + 1
	}
	z, from := r.pos, 0
	for k := 0; k <= len(in.Weighted); k++ {
		to := n
		if k < len(in.Weighted) {
			to = in.Weighted[k].Pos
		}
		for i := from; i < to; i++ {
			r.order[z] = int32(i)
			z++
		}
		from = to + 1
	}
	return r
}

// heavyAt returns the index in heavy of the task at rank k, -1 for the
// zero class.
func (r *ranking) heavyAt(k int) int {
	if k < r.pos {
		return k
	}
	if j := k - len(r.order) + len(r.heavy); j >= r.pos {
		return j
	}
	return -1
}

// weight is the weight of the task at rank k.
func (r *ranking) weight(k int) int64 {
	if j := r.heavyAt(k); j >= 0 {
		return r.heavy[j].Weight
	}
	return 0
}

// class is the weight class of the task at rank k.
func (r *ranking) class(k int) int {
	if j := r.heavyAt(k); j >= 0 {
		return int(r.heavyClass[j])
	}
	return r.zeroClass
}

// classes counts the weight classes, the zero class always among them.
func (r *ranking) classes() int {
	if r.pos < len(r.heavy) {
		return int(r.heavyClass[len(r.heavy)-1]) + 1
	}
	return r.zeroClass + 1
}
