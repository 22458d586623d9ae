// Package sched implements task scheduling for sub-dataset analysis:
//
//   - the Hadoop block-locality baseline (the paper's "without DataNet");
//   - DataNet's distribution-aware Algorithm 1 (the paper's "with
//     DataNet"): each task request is answered with the block whose
//     sub-dataset weight moves the requesting node's workload closest to
//     the cluster average W̄, preferring local replicas;
//   - an offline max-flow optimal assignment (paper §IV-B, via
//     internal/graph);
//   - ablation schedulers (LPT greedy, random);
//   - a dynamic-rebalance comparator modeling SkewTune-style runtime
//     migration, used for the §V-A.4 ">30% of data migrated" analysis;
//   - a min-transfer aggregation planner (the paper's stated future work).
//
// Every scheduler answers the pull protocol Hadoop task trackers use: a
// node with a free slot requests the next task. Each is a puller of task
// positions, and one adapter (picker) serves them to the engine as Tasks
// with the rule that chose each, for the engine's per-assignment audit
// trail (internal/trace).
package sched

import (
	"math/rand"
	"slices"

	"datanet/internal/cluster"
	"datanet/internal/graph"
	"datanet/internal/hdfs"
)

// Task is one map task: processing one block for the target sub-dataset.
type Task struct {
	// Block identifies the HDFS block.
	Block hdfs.BlockID
	// Index is the task's position in the job (block order).
	Index int
	// Weight is the task's sub-dataset workload |b ∩ s| in bytes, as
	// estimated by ElasticMap (or ground truth in oracle runs).
	Weight int64
	// Bytes is the full block size (scan cost is paid on the whole block).
	Bytes int64
	// Locations lists replica-holding nodes.
	Locations []cluster.NodeID
}

// Picker hands out tasks under the pull protocol. Implementations are not
// safe for concurrent use; the engine serializes requests in event order.
type Picker interface {
	// Name identifies the scheduling policy.
	Name() string
	// Next removes and returns a task for the requesting node, with the
	// rule that chose it. ok is false when no tasks remain (or, for the
	// delay picker, while the node waits). Rules are namespaced by policy:
	// "algo1.argmin-local", "algo1.line12-assist",
	// "algo1.no-local-replica", "algo1.steal-local", "algo1.steal-global",
	// "locality.local-fifo", "locality.remote-fifo", "delay.local-fifo",
	// "delay.remote-after-wait", "lpt.local", "lpt.remote",
	// "random.local", "random.remote", "maxflow.plan", "maxflow.steal";
	// the fallback picker prefixes "fallback.". For Algorithm 1 they tell
	// the argmin placement on a local replica from the line-12 off-replica
	// assist and from execution-time stealing — the difference between
	// "the plan was balanced" and "stealing rescued an unbalanced plan".
	Next(node cluster.NodeID) (t Task, rule string, ok bool)
	// Remaining reports how many tasks are still unassigned.
	Remaining() int
}

// Factory builds a fresh Picker for a job. The picker may keep tasks and
// hand out its elements by value: the caller must not modify the slice or
// its elements while it picks.
type Factory func(tasks []Task, topo *cluster.Topology) Picker

// ---------------------------------------------------------------------------
// Hadoop locality baseline.

// locality models Hadoop's default block-locality-driven scheduling: a
// requesting node receives its first unprocessed local block (FIFO in
// block order), falling back to the first remaining block when it has no
// local work left. Sub-dataset weights are ignored entirely — this is the
// paper's "without DataNet" configuration. Over a heaviest-first order
// the same puller is the LPT ablation (NewLPTPicker).
type locality struct {
	localRule, remoteRule rule
	order                 []int32 // service order: task positions
	taken                 []bool  // by service position
	// queued holds each node's local queue of service positions,
	// ascending, node-major: node n's is queued[head[n]:end[n]], its taken
	// head entries dropped lazily.
	queued    []int32
	head, end []int32
	nextRem   int
}

// NewLocalityPicker constructs the baseline picker.
func NewLocalityPicker(tasks []Task, _ *cluster.Topology) Picker {
	return serve("hadoop-locality", newLocality(input(tasks), false), tasks)
}

// NewLPTPicker constructs a longest-processing-time greedy: a requesting
// node takes its heaviest unprocessed local block (else the heaviest
// remaining), equal weights in block order. Classic makespan heuristic;
// an ablation contrast for Algorithm 1.
func NewLPTPicker(tasks []Task, _ *cluster.Topology) Picker {
	return serve("lpt-greedy", newLocality(input(tasks), true), tasks)
}

// newLocality serves in's tasks in block order, or heaviest first for
// LPT, local blocks first. The queues are laid out in one array by a
// counting pass.
func newLocality(in Input, lpt bool) *locality {
	p := &locality{localRule: ruleLocalityLocal, remoteRule: ruleLocalityRemote}
	if lpt {
		p.localRule, p.remoteRule = ruleLPTLocal, ruleLPTRemote
		p.order = heaviestFirst(in).order
	} else {
		p.order = make([]int32, in.len())
		for i := range p.order {
			p.order[i] = int32(i)
		}
	}
	var end []int32 // replicas per node, then each queue's fill cursor
	for i := range p.order {
		for _, n := range in.Replicas(i) {
			if int(n) >= len(end) {
				end = append(end, make([]int32, int(n)+1-len(end))...)
			}
			end[n]++
		}
	}
	p.head = make([]int32, len(end))
	var total int32
	for n, c := range end {
		p.head[n], end[n] = total, total
		total += c
	}
	p.queued = make([]int32, total)
	for i, ti := range p.order {
		for _, n := range in.Replicas(int(ti)) {
			p.queued[end[n]] = int32(i)
			end[n]++
		}
	}
	p.end = end
	p.taken = make([]bool, len(p.order))
	return p
}

func (p *locality) pull(node cluster.NodeID) (int, rule, bool) {
	if i, ok := p.local(node); ok {
		return p.take(i), p.localRule, true
	}
	return p.take(p.remote()), p.remoteRule, true
}

// local returns the node's first untaken local task, dropping the taken
// ones ahead of it from its queue so no pull scans them again. A node
// past the last one any task names has no queue.
func (p *locality) local(node cluster.NodeID) (int, bool) {
	if node < 0 || int(node) >= len(p.head) {
		return 0, false
	}
	h, end := p.head[node], p.end[node]
	for h < end && p.taken[p.queued[h]] {
		h++
	}
	p.head[node] = h
	if h == end {
		return 0, false
	}
	return int(p.queued[h]), true
}

// remote returns the first untaken task in service order; a task must
// remain.
func (p *locality) remote() int {
	for p.taken[p.nextRem] {
		p.nextRem++
	}
	return p.nextRem
}

// take marks service position i taken and returns its task position.
func (p *locality) take(i int) int {
	p.taken[i] = true
	return int(p.order[i])
}

// delayed refines the baseline with Hadoop's delay scheduling: a node with
// no local work declines up to delay consecutive requests (hoping a local
// block frees up as other nodes drain the queue) before accepting a remote
// block. It raises data-locality at the cost of idle slots — the real
// Hadoop trade-off — and serves as a stronger baseline ablation.
type delayed struct {
	*locality
	delay   int
	waiting map[cluster.NodeID]int
}

// NewDelayedLocalityPicker returns a Factory with the given maximum
// number of declined requests per node. A declined request returns
// ok=false with tasks still Remaining, so the engine's slots keep asking
// until Remaining()==0.
func NewDelayedLocalityPicker(delay int) Factory {
	return func(tasks []Task, _ *cluster.Topology) Picker {
		p := &delayed{locality: newLocality(input(tasks), false), delay: delay, waiting: make(map[cluster.NodeID]int)}
		return serve("hadoop-delay", p, tasks)
	}
}

func (p *delayed) pull(node cluster.NodeID) (int, rule, bool) {
	// Serve a local block if one exists (also resets the wait counter).
	if i, ok := p.local(node); ok {
		p.waiting[node] = 0
		return p.take(i), ruleDelayLocal, true
	}
	if p.waiting[node] < p.delay {
		p.waiting[node]++
		return 0, 0, false // decline; the slot will ask again
	}
	p.waiting[node] = 0
	return p.take(p.remote()), ruleDelayRemote, true // give up waiting: remote FIFO
}

// ---------------------------------------------------------------------------
// DataNet Algorithm 1.

// dataNet implements the paper's Algorithm 1: distribution-aware,
// workload-balanced assignment of block tasks using the ElasticMap
// weights. Because DataNet's defining property is that the sub-dataset
// distribution is known *before* the job launches (§IV: "we could identify
// the imbalanced distribution of sub-datasets before launching the actual
// analysis tasks"), the puller materializes the balanced assignment up
// front and serves it through the pull protocol:
//
//   - tasks are placed in descending weight order, each on the
//     replica-holding node whose projected workload stays lowest (the
//     assignment Algorithm 1's argmin |W_i + |b_x ∩ s| − W̄| objective
//     converges to; evaluating that argmin one myopic pull at a time
//     instead would let zero-weight blocks starve under-target nodes and
//     strand heavy blocks on whoever requests last);
//   - a task is assigned off-replica (a remote read) only when every
//     replica holder is already far ahead of the least-loaded node —
//     Algorithm 1's line-12 fallback, rate-limited because remote scans
//     cost network time;
//   - zero-weight blocks are spread by task count so per-task overheads
//     stay balanced too;
//   - at execution time a node that drains its queue steals the lightest
//     task from the heaviest remaining queue, keeping the pull protocol
//     deadlock-free and self-correcting.
//
// Stealing is defined per queue — every non-empty queue offers its
// tail-most candidate (for a local steal, its tail-most task with a replica
// on the thief), the lightest offer wins, ties go to the lower victim id —
// but it is served from orders fixed at plan time, sorted by the three keys
// (weight ↑, victim id ↑, planned queue position ↓): one over every task,
// and one per replica-holding node over the tasks it holds a replica of.
// The first untaken entry of an order is that scan's answer: a queue is
// planned heaviest-first, so the untaken entry of a queue that sorts first
// under (weight ↑, position ↓) is its tail-most candidate, and (weight ↑,
// victim ↑) across queues is the scan's own comparison. Tasks never move
// between queues and a taken task stays taken, so each order is walked once
// by a cursor and a steal costs amortized O(1) whatever the cluster size.
type dataNet struct {
	// order is the task positions heaviest first, the order they were
	// placed in; the task of rank k was placed by planning rule why[k].
	order []int32
	why   []rule
	// plan holds the ranks node-major: node n's planned queue, heaviest
	// first, is plan[start[n]:start[n+1]]. head[n] is the next planned
	// position node n serves; taken marks what was served or stolen.
	plan        []int32
	start, head []int32
	taken       []bool
	// stealAll is the global steal order (planned positions) and allAt its
	// cursor; node n's local order is local[localAt[n]:localEnd[n]], its
	// cursor the start.
	stealAll          []int32
	allAt             int32
	local             []int32
	localAt, localEnd []int32
}

// assistFactor controls off-replica assignment: a task may go remote when
// the best local holder is more than assistFactor×weight ahead of the
// globally least-loaded node.
const assistFactor = 2.0

// NewDataNetPicker constructs Algorithm 1 with a uniform workload target
// W̄ (homogeneous clusters, as in the paper's evaluation).
func NewDataNetPicker(tasks []Task, topo *cluster.Topology) Picker {
	return serve("datanet", newDataNet(input(tasks), topo, false), tasks)
}

// NewCapacityAwarePicker is Algorithm 1 with per-node targets proportional
// to CPU capacity ("according to the computing capability of computational
// nodes, we can calculate the amount of sub-datasets to be assigned to
// each node", §IV-B) — the heterogeneous-cluster variant.
func NewCapacityAwarePicker(tasks []Task, topo *cluster.Topology) Picker {
	return serve("datanet-capacity", newDataNet(input(tasks), topo, true), tasks)
}

func newDataNet(in Input, topo *cluster.Topology, capacityAware bool) *dataNet {
	m := topo.N()
	share := make([]float64, m)
	for i := range share {
		share[i] = 1 / float64(m)
	}
	if capacityAware {
		// Per-node capacity shares normalize projected loads on
		// heterogeneous clusters ("according to the computing capability
		// of computational nodes", §IV-B).
		total := topo.TotalCapacity()
		for i := range share {
			if c := topo.Node(cluster.NodeID(i)).CPURate / total; c > 0 {
				share[i] = c
			}
		}
	}

	// Place tasks in descending weight order, equal-weight blocks in file
	// order.
	rank := heaviestFirst(in)
	n := len(rank.order)

	load := make([]float64, m) // normalized: bytes / share
	count := make([]int32, m)
	placed := make([]int32, n) // rank -> node
	why := make([]rule, n)     // rank -> planning rule

	better := func(a, b int) bool { return placesBefore(load, count, a, b) }
	// The least-loaded node under better, kept current by one sift per
	// placement: a placement only ever worsens the chosen node's key. A
	// zero weight needs it only when the task has no local replica, so
	// from the first zero weight, the start of most of a sparse job, the
	// sifts stop until a placement needs the heap again; it is rebuilt
	// then, once, and sifted from there on. Its top is better's unique
	// first node either way.
	least := newNodeHeap(m, better)
	stale, rebuilt := false, false

	holds := make([]int32, m+1) // holds[n+1]: tasks with a replica on node n
	for k, ti := range rank.order {
		w := rank.weight(k)
		stale = stale || (w == 0 && !rebuilt)
		bestLocal := -1
		for _, loc := range in.Replicas(int(ti)) {
			if int(loc) < 0 || int(loc) >= m {
				continue
			}
			holds[loc+1]++
			if bestLocal == -1 || placesBefore(load, count, int(loc), bestLocal) {
				bestLocal = int(loc)
			}
		}
		pick, r := bestLocal, ruleArgminLocal
		if bestLocal == -1 || w > 0 {
			if stale {
				least.heapify()
				stale, rebuilt = false, true
			}
			gmin := least.top()
			if bestLocal == -1 {
				pick, r = gmin, ruleNoLocalReplica
			} else {
				// Off-replica assist (line-12 fallback): only when every
				// local holder is far ahead of the least-loaded node. Loads
				// are in normalized (capacity-adjusted) bytes, so the task's
				// weight is normalized at the receiving node's scale for the
				// comparison.
				wNorm := float64(w) / (share[gmin] * float64(m))
				if load[bestLocal]-load[gmin] > assistFactor*wNorm {
					pick, r = gmin, ruleLine12Assist
				}
			}
		}
		placed[k], why[k] = int32(pick), r
		if w != 0 {
			load[pick] += float64(w) / (share[pick] * float64(m))
		}
		count[pick]++
		if !stale {
			least.sink(pick)
		}
	}

	for i := 0; i < m; i++ {
		holds[i+1] += holds[i]
	}
	// The planned positions, the steal orders and the per-holder ones in
	// one array.
	slots := make([]int32, 2*n+int(holds[m]))
	p := &dataNet{
		order:    rank.order,
		why:      why,
		plan:     slots[:n:n],
		stealAll: slots[n : 2*n : 2*n],
		local:    slots[2*n:],
		start:    make([]int32, m+1),
		taken:    make([]bool, n),
		localAt:  holds[:m],
		localEnd: slices.Clone(holds[:m]), // the fill cursor until full
	}
	for i, c := range count {
		p.start[i+1] = p.start[i] + c
	}
	p.head = slices.Clone(p.start[:m])
	next := count // reused: node i's next planned position
	copy(next, p.start)
	for k, node := range placed {
		p.plan[next[node]] = int32(k)
		next[node]++
	}
	// The global steal order by a counting sort, lightest class first:
	// walking the queues in node order, each from its tail, lays every
	// class out by (victim ↑, position ↓). Placement order numbers the
	// classes, 0 the heaviest weight.
	classes := rank.classes()
	at := make([]int32, classes+1) // at[j]: where the j-th lightest class goes next
	for k := range rank.order {
		at[classes-rank.class(k)]++
	}
	for j := 2; j <= classes; j++ {
		at[j] += at[j-1]
	}
	for node := 0; node < m; node++ {
		for i := p.start[node+1] - 1; i >= p.start[node]; i-- {
			j := classes - 1 - rank.class(int(p.plan[i]))
			p.stealAll[at[j]] = i
			at[j]++
		}
	}
	// The per-holder orders are the global one filtered.
	for _, i := range p.stealAll {
		for _, loc := range in.Replicas(int(rank.order[p.plan[i]])) {
			if int(loc) >= 0 && int(loc) < m {
				p.local[p.localEnd[loc]] = i
				p.localEnd[loc]++
			}
		}
	}
	return p
}

// placesBefore reports whether node a is a better placement than node b:
// a lower projected load, then fewer tasks, then the lower id.
func placesBefore(load []float64, count []int32, a, b int) bool {
	if load[a] != load[b] {
		return load[a] < load[b]
	}
	if count[a] != count[b] {
		return count[a] < count[b]
	}
	return a < b
}

// pull serves the node's precomputed queue heaviest-first; when the queue
// is empty, it steals so early finishers absorb slack instead of idling.
// Stealing takes the *globally lightest* remaining task (preferring one
// whose replica the thief already holds) — zero-weight blocks migrate
// freely while the weight plan, including capacity-aware targets on
// heterogeneous clusters, stays intact; a heavy task only moves when
// nothing lighter remains anywhere.
func (p *dataNet) pull(node cluster.NodeID) (int, rule, bool) {
	for end := p.start[node+1]; p.head[node] < end; {
		i := p.head[node]
		p.head[node]++
		if !p.taken[i] { // else stolen from this queue
			return p.take(i), p.why[p.plan[i]], true
		}
	}
	if i := p.firstLeft(p.local[:p.localEnd[node]], &p.localAt[node]); i != -1 {
		return p.take(i), ruleStealLocal, true
	}
	return p.take(p.firstLeft(p.stealAll, &p.allAt)), ruleStealGlobal, true
}

// firstLeft advances a steal order's cursor to its first untaken entry
// and returns that planned position, -1 when the order is spent. While
// tasks remain the global order is never spent.
func (p *dataNet) firstLeft(order []int32, at *int32) int32 {
	for ; int(*at) < len(order); *at++ {
		if i := order[*at]; !p.taken[i] {
			return i
		}
	}
	return -1
}

// take marks planned position i taken and returns its task position.
func (p *dataNet) take(i int32) int {
	p.taken[i] = true
	return int(p.order[p.plan[i]])
}

// nodeHeap is an indexed binary heap of the node ids 0..n-1 under a strict
// total order the caller supplies: top is the order's first node, and sink
// restores the heap in O(log n) after one node's key moved later in the
// order — the only way a key moves in either puller that uses it.
type nodeHeap struct {
	before func(a, b int) bool
	heap   []int // node ids in heap order
	pos    []int // node id -> position in heap
}

func newNodeHeap(n int, before func(a, b int) bool) *nodeHeap {
	h := &nodeHeap{before: before, heap: make([]int, n), pos: make([]int, n)}
	for i := range h.heap {
		h.heap[i], h.pos[i] = i, i
	}
	h.heapify()
	return h
}

// heapify restores the heap in O(n) whatever keys moved, and in whichever
// direction.
func (h *nodeHeap) heapify() {
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.sink(h.heap[i])
	}
}

func (h *nodeHeap) top() int { return h.heap[0] }

func (h *nodeHeap) sink(node int) {
	i, n := h.pos[node], len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.before(h.heap[r], h.heap[c]) {
			c = r
		}
		if !h.before(h.heap[c], node) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = i
		i = c
	}
	h.heap[i], h.pos[node] = node, i
}

// ---------------------------------------------------------------------------
// Ablation: random local choice.

// random assigns a uniformly random remaining local task (else a random
// remaining task). It isolates how much of the imbalance is due to FIFO
// order versus locality itself.
type random struct {
	taken  []bool
	byNode map[cluster.NodeID][]int
	rng    *rand.Rand
	cand   []int // the pull's candidates, reused
}

// NewRandomPicker returns a Factory seeded for reproducibility.
func NewRandomPicker(seed int64) Factory {
	return func(tasks []Task, _ *cluster.Topology) Picker {
		p := &random{taken: make([]bool, len(tasks)), byNode: make(map[cluster.NodeID][]int), rng: rand.New(rand.NewSource(seed))}
		for i, t := range tasks {
			for _, n := range t.Locations {
				p.byNode[n] = append(p.byNode[n], i)
			}
		}
		return serve("random-local", p, tasks)
	}
}

func (p *random) pull(node cluster.NodeID) (int, rule, bool) {
	p.cand = p.cand[:0]
	for _, i := range p.byNode[node] {
		if !p.taken[i] {
			p.cand = append(p.cand, i)
		}
	}
	r := ruleRandomLocal
	if len(p.cand) == 0 {
		for i, taken := range p.taken {
			if !taken {
				p.cand = append(p.cand, i)
			}
		}
		r = ruleRandomRemote
	}
	i := p.cand[p.rng.Intn(len(p.cand))]
	p.taken[i] = true
	return i, r, true
}

// ---------------------------------------------------------------------------
// Offline max-flow assignment served under the pull protocol.

// static serves a precomputed node→positions assignment; requests from a
// node drain its own queue first, then steal from the most-loaded queue.
type static struct {
	queues [][]int // by NodeID: what is left of each node's planned queue
	// longest orders the nodes by (remaining queue length ↓, id ↑); its top
	// is the steal victim.
	longest *nodeHeap
}

// flowAssignment is the max-flow balanced assignment (paper §IV-B,
// Ford–Fulkerson) of in over nodes nodes: entry n lists the positions
// node n processes. Max-flow reads its input dense, every position's
// weight and replicas.
func flowAssignment(in Input, nodes int) [][]int {
	weights := make([]int64, in.len())
	for _, w := range in.Weighted {
		weights[w.Pos] = w.Weight
	}
	locs := make([][]int, len(weights))
	for i := range locs {
		replicas := in.Replicas(i)
		locs[i] = make([]int, len(replicas))
		for k, n := range replicas {
			locs[i][k] = int(n)
		}
	}
	return graph.BalancedAssignment(graph.NewBipartite(nodes, weights, locs))
}

// NewFlowPicker serves the max-flow assignment statically.
func NewFlowPicker(tasks []Task, topo *cluster.Topology) Picker {
	return serve("maxflow-optimal", newStatic(flowAssignment(input(tasks), topo.N())), tasks)
}

func newStatic(queues [][]int) *static {
	p := &static{queues: queues}
	p.longest = newNodeHeap(len(queues), func(a, b int) bool {
		if len(p.queues[a]) != len(p.queues[b]) {
			return len(p.queues[a]) > len(p.queues[b])
		}
		return a < b
	})
	return p
}

func (p *static) pull(node cluster.NodeID) (int, rule, bool) {
	if q := p.queues[node]; len(q) > 0 {
		p.queues[node] = q[1:]
		p.longest.sink(int(node))
		return q[0], ruleMaxflowPlan, true
	}
	// Work stealing from the largest remaining queue keeps the simulation
	// deadlock-free when a node finishes early.
	victim := p.longest.top()
	q := p.queues[victim]
	p.queues[victim] = q[:len(q)-1]
	p.longest.sink(victim)
	return q[len(q)-1], ruleMaxflowSteal, true
}
