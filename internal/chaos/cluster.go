package chaos

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"datanet/internal/cluster"
	"datanet/internal/clusterd"
	"datanet/internal/detect"
	"datanet/internal/elasticmap"
	"datanet/internal/hashutil"
	"datanet/internal/records"
	"datanet/internal/server"
)

// Cluster chaos: randomized crash/rejoin/decommission/add plans against
// the sharded metadata cluster (internal/clusterd), with client traffic
// interleaved, checking the failover invariants the design promises:
//
//   - no-lost-arrays: every seeded array stays queryable with records.
//   - unflagged-stale: a read that is not flagged stale never returns an
//     epoch below the highest one any client was acked.
//   - one-primary: at most one reachable node believes it leads a shard.
//   - acted-on-believed-dead: after every tick no shard is led by a
//     suspected member, and no follower the tick enlisted is suspected or
//     draining.
//   - convergence: within a bounded number of ticks after the last fault
//     the cluster is fully repaired and quiescent.
//   - replay: the same plan produces a bit-identical final state.
//
// Plans are *legitimate by construction*: destructive events are spaced
// at least a repair window apart and never take the live membership below
// Replicas+1, so asynchronous replication always has somewhere to put a
// surviving copy. A violation under a legitimate plan is a bug, and the
// campaign's shrinker minimizes it within the same legitimacy envelope: a
// candidate outside it breaks plan-validate, never the invariant shrunk.

// Cluster op kinds.
const (
	OpCrash        = "crash"
	OpRejoin       = "rejoin"
	OpDecommission = "decommission"
	OpAddNode      = "addnode"
	OpAppend       = "append"
	OpRead         = "read"
)

// ClusterOp is one planned event on the logical clock.
type ClusterOp struct {
	At   float64 `json:"at"`
	Kind string  `json:"kind"`
	// Node targets crash/rejoin/decommission; ignored for addnode (the
	// cluster assigns the next ID) and client ops.
	Node int `json:"node,omitempty"`
	// Array indexes the seeded array client ops hit.
	Array int `json:"array,omitempty"`
}

// ClusterPlan is a reproducible cluster fault schedule.
type ClusterPlan struct {
	Seed  uint64      `json:"seed"`
	Nodes int         `json:"nodes"`
	Ops   []ClusterOp `json:"ops"`
}

// ClusterParams sizes cluster chaos runs.
type ClusterParams struct {
	// Nodes, Shards, Replicas shape the cluster under test.
	Nodes, Shards, Replicas int
	// Arrays is the seeded catalog size.
	Arrays int
	// MaxOps caps a plan's length, but for one op: a crash drawn in the
	// last slot still brings its rejoin along.
	MaxOps int
	// RepairWindow is the tick spacing between destructive events — wide
	// enough for detection plus re-replication, so plans never ask the
	// cluster to survive more simultaneous loss than it replicates for.
	RepairWindow float64
	// ConvergenceTicks bounds repair time after the last op.
	ConvergenceTicks int
	// Detect configures the tracker; ShipDelay the replication lag.
	Detect    detect.Config
	ShipDelay float64
}

// DefaultClusterParams is the CI-sized configuration.
func DefaultClusterParams() ClusterParams {
	return ClusterParams{
		Nodes: 5, Shards: 4, Replicas: 2, Arrays: 6, MaxOps: 36,
		RepairWindow: 12, ConvergenceTicks: 40,
		Detect:    detect.Config{Mode: detect.Heartbeat, Interval: 1, Timeout: 3},
		ShipDelay: 1,
	}
}

// Campaign is the cluster campaign: every seed draws a legitimate plan
// and checks it against fresh clusters of this shape.
func (p ClusterParams) Campaign() *Campaign[*ClusterPlan] {
	return &Campaign[*ClusterPlan]{
		Gen: func(seed uint64) *ClusterPlan { return GenClusterPlan(seed, p) },
		Check: func(seed uint64, plan *ClusterPlan, census Census) []Violation {
			for _, op := range plan.Ops {
				census[op.Kind]++
			}
			vs, retries := CheckClusterPlan(seed, plan, p)
			census["retries"] += retries
			return vs
		},
		Edits: clusterEdits,
		Summary: func(c Census) string {
			return fmt.Sprintf("cluster runs (%d nodes, %d shards, %d replicas) under %s detection: "+
				"%d crashes, %d rejoins, %d decommissions, %d adds, %d appends, %d reads, %d retries",
				p.Nodes, p.Shards, p.Replicas, p.Detect.Mode, c[OpCrash], c[OpRejoin],
				c[OpDecommission], c[OpAddNode], c[OpAppend], c[OpRead], c["retries"])
		},
	}
}

// clusterEdits lists a plan's one-step simplifications: drop one op, a
// crash together with its paired rejoin (the first rejoin of the same
// node after it), or the candidate would be trivially invalid.
func clusterEdits(plan *ClusterPlan) []*ClusterPlan {
	out := make([]*ClusterPlan, len(plan.Ops))
	for i, op := range plan.Ops {
		ops := slices.Delete(slices.Clone(plan.Ops), i, i+1)
		if op.Kind == OpCrash {
			if j := slices.IndexFunc(ops[i:], func(o ClusterOp) bool { return o.Kind == OpRejoin && o.Node == op.Node }); j >= 0 {
				ops = slices.Delete(ops, i+j, i+j+1)
			}
		}
		out[i] = &ClusterPlan{Seed: plan.Seed, Nodes: plan.Nodes, Ops: ops}
	}
	return out
}

// planState tracks membership truth while generating or validating a
// plan, so legitimacy is checked against the same bookkeeping both ways.
type planState struct {
	p        ClusterParams
	up       map[int]bool // member and not crashed
	down     map[int]bool // member, crashed, not yet rejoined
	leaving  map[int]bool
	nextID   int
	lastHurt float64
}

func newPlanState(p ClusterParams) *planState {
	st := &planState{
		p: p, up: map[int]bool{}, down: map[int]bool{}, leaving: map[int]bool{},
		nextID: p.Nodes, lastHurt: -p.RepairWindow,
	}
	for i := 0; i < p.Nodes; i++ {
		st.up[i] = true
	}
	return st
}

// sortedUpStaying lists the members that are up and not leaving — the
// crash/decommission candidates — deterministically.
func (st *planState) sortedUpStaying() []int {
	var out []int
	for id := range st.up {
		if !st.leaving[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// apply advances the state by one op, reporting whether it is legitimate
// at its instant under the spacing and survivability rules.
func (st *planState) apply(op ClusterOp) error {
	switch op.Kind {
	case OpCrash, OpDecommission:
		// Both hurt: the target must be up and staying, a repair window
		// after the previous hurt, and Replicas+1 staying members must remain.
		staying := st.sortedUpStaying()
		switch {
		case !slices.Contains(staying, op.Node):
			return fmt.Errorf("%s target %d not an up staying member", op.Kind, op.Node)
		case op.At-st.lastHurt < st.p.RepairWindow:
			return fmt.Errorf("%s at %g within repair window of previous fault", op.Kind, op.At)
		case len(staying)-1 < st.p.Replicas+1:
			return fmt.Errorf("%s at %g would leave %d live nodes, need %d",
				op.Kind, op.At, len(staying)-1, st.p.Replicas+1)
		}
		st.lastHurt = op.At
		if op.Kind == OpDecommission {
			st.leaving[op.Node] = true
			break
		}
		delete(st.up, op.Node)
		st.down[op.Node] = true
	case OpRejoin:
		if !st.down[op.Node] {
			return fmt.Errorf("rejoin target %d is not down", op.Node)
		}
		delete(st.down, op.Node)
		st.up[op.Node] = true
	case OpAddNode:
		st.up[st.nextID] = true
		st.nextID++
	case OpAppend, OpRead:
		if op.Array < 0 || op.Array >= st.p.Arrays {
			return fmt.Errorf("%s of array %d out of range", op.Kind, op.Array)
		}
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
	return nil
}

// ValidateClusterPlan re-runs the legitimacy rules over a plan. The
// generator always passes; the shrinker uses it to reject candidate
// plans that would make data loss legal (and the violation meaningless).
func ValidateClusterPlan(plan *ClusterPlan, p ClusterParams) error {
	if plan.Nodes != p.Nodes {
		return fmt.Errorf("plan sized for %d nodes, params say %d", plan.Nodes, p.Nodes)
	}
	st := newPlanState(p)
	last := 0.0
	for i, op := range plan.Ops {
		if op.At < last {
			return fmt.Errorf("op %d at %g out of order (previous %g)", i, op.At, last)
		}
		last = op.At
		if err := st.apply(op); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// GenClusterPlan derives a random-but-reproducible legitimate plan:
// client traffic throughout, with crashes, rejoins, decommissions and
// node additions spaced so the cluster is never asked to survive more
// loss than its replication factor covers.
func GenClusterPlan(seed uint64, p ClusterParams) *ClusterPlan {
	r := newRNG(seed)
	plan := &ClusterPlan{Seed: seed, Nodes: p.Nodes}
	st := newPlanState(p)
	var pendingRejoins []ClusterOp
	t := 0.0
	for len(plan.Ops)+len(pendingRejoins) < p.MaxOps {
		t += float64(1 + r.intn(3))
		// Flush scheduled rejoins that have come due.
		for len(pendingRejoins) > 0 && pendingRejoins[0].At <= t {
			op := pendingRejoins[0]
			pendingRejoins = pendingRejoins[1:]
			plan.Ops = append(plan.Ops, op)
			st.apply(op)
		}
		roll := r.float()
		var op ClusterOp
		switch {
		case roll < 0.35:
			op = ClusterOp{At: t, Kind: OpAppend, Array: r.intn(p.Arrays)}
		case roll < 0.70:
			op = ClusterOp{At: t, Kind: OpRead, Array: r.intn(p.Arrays)}
		case roll < 0.82:
			cands := st.sortedUpStaying()
			if len(cands) == 0 {
				continue
			}
			op = ClusterOp{At: t, Kind: OpCrash, Node: cands[r.intn(len(cands))]}
			if st.apply(op) != nil {
				continue // spacing or survivability says no; skip the slot
			}
			plan.Ops = append(plan.Ops, op)
			if r.float() < 0.7 {
				// Most crashes restart after at least a repair window, as a
				// wiped process that must resync.
				back := ClusterOp{
					At:   t + p.RepairWindow + float64(r.intn(int(p.RepairWindow))),
					Kind: OpRejoin, Node: op.Node,
				}
				pendingRejoins = append(pendingRejoins, back)
			}
			continue
		case roll < 0.92:
			cands := st.sortedUpStaying()
			if len(cands) == 0 {
				continue
			}
			op = ClusterOp{At: t, Kind: OpDecommission, Node: cands[r.intn(len(cands))]}
			if st.apply(op) != nil {
				continue
			}
			plan.Ops = append(plan.Ops, op)
			continue
		default:
			op = ClusterOp{At: t, Kind: OpAddNode}
		}
		if st.apply(op) != nil {
			continue
		}
		plan.Ops = append(plan.Ops, op)
	}
	// Any rejoins still pending land after the last generated op.
	for _, op := range pendingRejoins {
		if op.At <= t {
			op.At = t + 1
			t++
		}
		plan.Ops = append(plan.Ops, op)
		st.apply(op)
	}
	sort.SliceStable(plan.Ops, func(i, j int) bool { return plan.Ops[i].At < plan.Ops[j].At })
	return plan
}

// clusterArrayName names seeded array i; clusterAppendChunk is the
// deterministic payload every append carries.
func clusterArrayName(i int) string { return fmt.Sprintf("arr-%02d", i) }

func clusterArray(i, n int) *elasticmap.Array {
	name := clusterArrayName(i)
	recs := make([]records.Record, n)
	for j := range recs {
		recs[j] = records.Record{Sub: name, Time: int64(j), Rating: 3, Payload: "pp"}
	}
	return elasticmap.Build([][]records.Record{recs}, elasticmap.Options{Alpha: 0.5})
}

// clusterRunResult is the digestible outcome of one plan execution.
type clusterRunResult struct {
	digest     uint64
	retries    int
	violations []Violation
}

// clusterArm is the arm every cluster violation breaks under: the
// campaign runs one configuration.
const clusterArm = "cluster"

// CheckClusterPlan executes a plan twice against fresh clusters and
// checks every invariant, including replay equality of the final state.
// retries counts client ops that hit a legal unavailability window.
func CheckClusterPlan(seed uint64, plan *ClusterPlan, p ClusterParams) (violations []Violation, retries int) {
	if err := ValidateClusterPlan(plan, p); err != nil {
		return []Violation{{Seed: seed, Arm: clusterArm, Invariant: "plan-validate", Detail: err.Error()}}, 0
	}
	a := runClusterPlan(seed, plan, p)
	b := runClusterPlan(seed, plan, p)
	out := a.violations
	if a.digest != b.digest {
		out = append(out, Violation{
			Seed: seed, Arm: clusterArm, Invariant: "replay",
			Detail: fmt.Sprintf("final state digests diverge: %x vs %x", a.digest, b.digest),
		})
	}
	return out, a.retries
}

// runClusterPlan executes one plan: seed the catalog, interleave ops with
// ticks, check the online invariants each tick, then drive to
// convergence and check the terminal ones.
func runClusterPlan(seed uint64, plan *ClusterPlan, p ClusterParams) clusterRunResult {
	res := clusterRunResult{}
	fail := func(inv, format string, args ...any) {
		res.violations = append(res.violations, Violation{
			Seed: seed, Arm: clusterArm, Invariant: inv, Detail: fmt.Sprintf(format, args...),
		})
	}
	c, err := clusterd.New(clusterd.Config{
		Shards: p.Shards, Replicas: p.Replicas,
		Detect: p.Detect, ShipDelay: p.ShipDelay, CacheSize: 64,
	}, p.Nodes)
	if err != nil {
		fail("setup", "building cluster: %v", err)
		return res
	}
	for i := 0; i < p.Arrays; i++ {
		if err := c.Load(clusterArrayName(i), clusterArray(i, 10)); err != nil {
			fail("setup", "loading %s: %v", clusterArrayName(i), err)
			return res
		}
	}
	// acked is the client-side model: the highest epoch any client was
	// acked per array. An unflagged read below it is a staleness breach.
	acked := make([]uint64, p.Arrays)

	doOp := func(op ClusterOp) {
		switch op.Kind {
		case OpCrash:
			if err := c.Crash(cluster.NodeID(op.Node)); err != nil {
				fail("op-apply", "crash %d: %v", op.Node, err)
			}
		case OpRejoin:
			if err := c.Rejoin(cluster.NodeID(op.Node)); err != nil {
				fail("op-apply", "rejoin %d: %v", op.Node, err)
			}
		case OpDecommission:
			if err := c.Decommission(cluster.NodeID(op.Node)); err != nil {
				fail("op-apply", "decommission %d: %v", op.Node, err)
			}
		case OpAddNode:
			c.AddNode()
		case OpAppend:
			sn, err := c.Append(clusterArrayName(op.Array), clusterArray(op.Array, 2))
			switch {
			case err == nil:
				if sn.Epoch > acked[op.Array] {
					acked[op.Array] = sn.Epoch
				}
			case errors.Is(err, server.ErrUnknownArray):
				fail("no-lost-arrays", "append found %s missing: %v", clusterArrayName(op.Array), err)
			case clusterd.IsFailoverRefusal(err):
				res.retries++
			default:
				fail("typed-error", "append %s: %v", clusterArrayName(op.Array), err)
			}
		case OpRead:
			sn, stale, err := c.Read(clusterArrayName(op.Array))
			switch {
			case err == nil:
				if !stale && sn.Epoch < acked[op.Array] {
					fail("unflagged-stale", "read of %s returned epoch %d unflagged, acked %d",
						clusterArrayName(op.Array), sn.Epoch, acked[op.Array])
				}
				if sn.Epoch > acked[op.Array] {
					acked[op.Array] = sn.Epoch
				}
			case errors.Is(err, server.ErrUnknownArray):
				fail("no-lost-arrays", "read found %s missing: %v", clusterArrayName(op.Array), err)
			case clusterd.IsFailoverRefusal(err):
				res.retries++
			default:
				fail("typed-error", "read %s: %v", clusterArrayName(op.Array), err)
			}
		}
	}

	// tick advances the clock and checks the online invariants.
	tick := func(now float64) {
		prev := c.Topology()
		c.Tick(now)
		for si, owners := range c.PrimaryCensus() {
			if len(owners) > 1 {
				fail("one-primary", "t=%g shard %d claimed by %v", now, si, owners)
			}
		}
		tv := c.Topology()
		nodes := map[int]clusterd.NodeView{}
		for _, n := range tv.Nodes {
			nodes[n.ID] = n
		}
		for si, sv := range tv.Map {
			if nodes[sv.Primary].Suspected {
				fail("acted-on-believed-dead", "t=%g shard %d led by suspected node %d", now, si, sv.Primary)
			}
			for _, f := range sv.Followers {
				if n := nodes[f]; (n.Suspected || n.Leaving) && !slices.Contains(prev.Map[si].Followers, f) {
					fail("acted-on-believed-dead", "t=%g shard %d enlisted node %d (suspected %v, leaving %v)",
						now, si, f, n.Suspected, n.Leaving)
				}
			}
		}
	}

	idx := 0
	now := 0.0
	for idx < len(plan.Ops) {
		now++
		for idx < len(plan.Ops) && plan.Ops[idx].At <= now {
			doOp(plan.Ops[idx])
			idx++
		}
		tick(now)
	}
	// Drive to convergence within the bound.
	converged := false
	for i := 0; i < p.ConvergenceTicks; i++ {
		now++
		tick(now)
		if c.Converged() == nil {
			converged = true
			break
		}
	}
	if !converged {
		fail("convergence", "not converged %d ticks after last op: %v", p.ConvergenceTicks, c.Converged())
	}
	// Terminal catalog sweep: every seeded array queryable with records,
	// and staleness flags still honest.
	h := hashutil.New()
	for i := 0; i < p.Arrays; i++ {
		name := clusterArrayName(i)
		sn, stale, err := c.Read(name)
		if err != nil {
			fail("no-lost-arrays", "terminal read of %s: %v", name, err)
			continue
		}
		total, _, _ := sn.Arr.EstimateDetailed(name)
		if total <= 0 {
			fail("no-lost-arrays", "terminal %s has no records", name)
		}
		if !stale && sn.Epoch < acked[i] {
			fail("unflagged-stale", "terminal read of %s epoch %d unflagged, acked %d", name, sn.Epoch, acked[i])
		}
		fmt.Fprintf(h, "%s|%d|%d|%v|%d\n", name, sn.Epoch, total, stale, sn.Arr.Len())
	}
	st := c.Stats()
	fmt.Fprintf(h, "stats|%d|%d|%d|%d|%d\n",
		st.Promotions, st.Handoffs, st.DroppedShips, st.ShipsDelivered, st.Suspicions)
	res.digest = h.Sum64()
	return res
}
