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
// surviving copy. A violation under a legitimate plan is a bug, and
// ShrinkCluster minimizes it within the same legitimacy envelope.

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
	// MaxOps caps a plan's length.
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

func (p ClusterParams) withDefaults() ClusterParams {
	if p.Nodes == 0 {
		return DefaultClusterParams()
	}
	d := DefaultClusterParams()
	if p.Shards <= 0 {
		p.Shards = d.Shards
	}
	if p.Replicas <= 0 {
		p.Replicas = d.Replicas
	}
	if p.Arrays <= 0 {
		p.Arrays = d.Arrays
	}
	if p.MaxOps <= 0 {
		p.MaxOps = d.MaxOps
	}
	if p.RepairWindow <= 0 {
		p.RepairWindow = d.RepairWindow
	}
	if p.ConvergenceTicks <= 0 {
		p.ConvergenceTicks = d.ConvergenceTicks
	}
	if p.Detect.Mode == detect.Oracle && p.Detect.Interval == 0 {
		p.Detect = d.Detect
	}
	if p.ShipDelay <= 0 {
		p.ShipDelay = d.ShipDelay
	}
	return p
}

// ClusterViolation is one cluster invariant breach.
type ClusterViolation struct {
	Seed      uint64
	Invariant string
	Detail    string
	Plan      *ClusterPlan
}

func (v ClusterViolation) String() string {
	return fmt.Sprintf("seed=%d invariant=%s: %s", v.Seed, v.Invariant, v.Detail)
}

// ClusterReport summarizes a cluster chaos campaign.
type ClusterReport struct {
	Runs       int
	Violations []ClusterViolation
	// Census of what the plans contained.
	Crashes, Rejoins, Decommissions, AddNodes, Appends, Reads int
	// Retries counts client ops that hit a legal unavailability window.
	Retries int
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

// liveStaying counts members that are up and not leaving.
func (st *planState) liveStaying() int {
	n := 0
	for id := range st.up {
		if !st.leaving[id] {
			n++
		}
	}
	return n
}

// sortedUpStaying lists crash/decommission candidates deterministically.
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
	case OpCrash:
		if !st.up[op.Node] || st.leaving[op.Node] {
			return fmt.Errorf("crash target %d not an up staying member", op.Node)
		}
		if op.At-st.lastHurt < st.p.RepairWindow {
			return fmt.Errorf("crash at %g within repair window of previous fault", op.At)
		}
		if st.liveStaying()-1 < st.p.Replicas+1 {
			return fmt.Errorf("crash at %g would leave %d live nodes, need %d",
				op.At, st.liveStaying()-1, st.p.Replicas+1)
		}
		delete(st.up, op.Node)
		st.down[op.Node] = true
		st.lastHurt = op.At
	case OpRejoin:
		if !st.down[op.Node] {
			return fmt.Errorf("rejoin target %d is not down", op.Node)
		}
		delete(st.down, op.Node)
		st.up[op.Node] = true
	case OpDecommission:
		if !st.up[op.Node] || st.leaving[op.Node] {
			return fmt.Errorf("decommission target %d not an up staying member", op.Node)
		}
		if op.At-st.lastHurt < st.p.RepairWindow {
			return fmt.Errorf("decommission at %g within repair window", op.At)
		}
		if st.liveStaying()-1 < st.p.Replicas+1 {
			return fmt.Errorf("decommission at %g would leave too few nodes", op.At)
		}
		st.leaving[op.Node] = true
		st.lastHurt = op.At
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
	p = p.withDefaults()
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
	p = p.withDefaults()
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

// legalUnavailability reports whether a client error is a permitted
// failover-window outcome rather than a correctness bug.
func legalUnavailability(err error) bool {
	return errors.Is(err, clusterd.ErrNotLeader) ||
		errors.Is(err, clusterd.ErrNoLeader) ||
		errors.Is(err, clusterd.ErrNodeDown)
}

// clusterRunResult is the digestible outcome of one plan execution.
type clusterRunResult struct {
	digest     uint64
	retries    int
	violations []ClusterViolation
}

// CheckClusterPlan executes a plan twice against fresh clusters and
// checks every invariant, including replay equality of the final state.
// retries counts client ops that hit a legal unavailability window.
func CheckClusterPlan(seed uint64, plan *ClusterPlan, p ClusterParams) (violations []ClusterViolation, retries int) {
	p = p.withDefaults()
	if err := ValidateClusterPlan(plan, p); err != nil {
		return []ClusterViolation{{
			Seed: seed, Invariant: "plan-validate",
			Detail: err.Error(), Plan: plan,
		}}, 0
	}
	a := runClusterPlan(seed, plan, p)
	b := runClusterPlan(seed, plan, p)
	out := a.violations
	if a.digest != b.digest {
		out = append(out, ClusterViolation{
			Seed: seed, Invariant: "replay",
			Detail: fmt.Sprintf("final state digests diverge: %x vs %x", a.digest, b.digest),
			Plan:   plan,
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
		res.violations = append(res.violations, ClusterViolation{
			Seed: seed, Invariant: inv, Detail: fmt.Sprintf(format, args...), Plan: plan,
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
			case errors.Is(err, clusterd.ErrUnknownArray):
				fail("no-lost-arrays", "append found %s missing: %v", clusterArrayName(op.Array), err)
			case legalUnavailability(err):
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
			case errors.Is(err, clusterd.ErrUnknownArray):
				fail("no-lost-arrays", "read found %s missing: %v", clusterArrayName(op.Array), err)
			case legalUnavailability(err):
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

// ShrinkCluster minimizes a violating plan within the legitimacy
// envelope: it greedily removes ops (a crash drags its rejoin along) as
// long as the candidate stays valid and still provokes a violation of
// the same invariant.
func ShrinkCluster(plan *ClusterPlan, p ClusterParams, invariant string) *ClusterPlan {
	p = p.withDefaults()
	fails := func(cand *ClusterPlan) bool {
		if ValidateClusterPlan(cand, p) != nil {
			return false
		}
		vs, _ := CheckClusterPlan(cand.Seed, cand, p)
		for _, v := range vs {
			if v.Invariant == invariant {
				return true
			}
		}
		return false
	}
	if !fails(plan) {
		return plan
	}
	cur := cloneClusterPlan(plan)
	for {
		next, ok := shrinkClusterStep(cur, fails)
		if !ok {
			return cur
		}
		cur = next
	}
}

func cloneClusterPlan(p *ClusterPlan) *ClusterPlan {
	q := &ClusterPlan{Seed: p.Seed, Nodes: p.Nodes}
	q.Ops = append([]ClusterOp(nil), p.Ops...)
	return q
}

// shrinkClusterStep tries every single-removal candidate; the first that
// still fails wins.
func shrinkClusterStep(cur *ClusterPlan, fails func(*ClusterPlan) bool) (*ClusterPlan, bool) {
	for i := range cur.Ops {
		cand := cloneClusterPlan(cur)
		removed := cand.Ops[i]
		cand.Ops = append(cand.Ops[:i], cand.Ops[i+1:]...)
		if removed.Kind == OpCrash {
			// The paired rejoin (first rejoin of the same node after the
			// crash) goes with it, or the candidate is trivially invalid.
			for j := i; j < len(cand.Ops); j++ {
				if cand.Ops[j].Kind == OpRejoin && cand.Ops[j].Node == removed.Node {
					cand.Ops = append(cand.Ops[:j], cand.Ops[j+1:]...)
					break
				}
			}
		}
		if fails(cand) {
			return cand, true
		}
	}
	return nil, false
}

// RunCluster executes a cluster chaos campaign of runs seeds derived
// from the base seed.
func RunCluster(runs int, seed uint64, p ClusterParams) (*ClusterReport, error) {
	p = p.withDefaults()
	rep := &ClusterReport{}
	r := newRNG(seed)
	for i := 0; i < runs; i++ {
		runSeed := r.next()
		plan := GenClusterPlan(runSeed, p)
		for _, op := range plan.Ops {
			switch op.Kind {
			case OpCrash:
				rep.Crashes++
			case OpRejoin:
				rep.Rejoins++
			case OpDecommission:
				rep.Decommissions++
			case OpAddNode:
				rep.AddNodes++
			case OpAppend:
				rep.Appends++
			case OpRead:
				rep.Reads++
			}
		}
		vs, retries := CheckClusterPlan(runSeed, plan, p)
		rep.Runs++
		rep.Retries += retries
		rep.Violations = append(rep.Violations, vs...)
	}
	return rep, nil
}
