// Package faults models cluster failures for the simulated MapReduce
// engine: node crashes (permanent or with rejoin), degraded nodes whose
// CPU/disk/NIC run at a fraction of their rated speed, and transient
// block-read errors with a per-attempt probability. A Plan is a pure,
// seeded description of what goes wrong and when; an Injector answers the
// engine's point queries ("is node 3 dead at t=12.5?", "does attempt 2 on
// block 7 fail?") deterministically, so identical plans always produce
// identical simulated executions.
//
// The paper evaluates DataNet on a healthy cluster; this package supplies
// the adversarial half of that evaluation. Crash semantics follow HDFS
// after the re-replication timeout: a crashed node's replicas are treated
// as lost (the name-node repairs redundancy from surviving copies), and a
// rejoining node returns empty.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"datanet/internal/cluster"
	"datanet/internal/hashutil"
	"datanet/internal/sim"
	"datanet/internal/trace"
)

// ErrBadPlan reports an invalid fault plan.
var ErrBadPlan = errors.New("faults: invalid plan")

// Crash kills one node at a simulated time. A node may crash more than
// once if it rejoins in between.
type Crash struct {
	// Node is the victim.
	Node cluster.NodeID
	// At is the simulated time of the crash, in seconds from job start.
	At float64
	// RejoinAt, when greater than At, brings the node back (empty: its
	// replicas were re-replicated away) at that time. Zero or ≤ At means
	// the crash is permanent.
	RejoinAt float64
}

// permanent reports whether the crash has no rejoin.
func (c Crash) permanent() bool { return c.RejoinAt <= c.At }

// Slowdown scales one node's hardware rates for the whole run, modeling a
// degraded machine (failing disk, thermal throttling, oversubscribed NIC).
// Factors are multipliers in (0, 1]; a factor of exactly 0 means
// "unchanged" — it is the unset value, not a total stall (use a small
// positive factor for a near-dead resource). A plan may name each node in
// at most one Slowdown entry: Validate rejects duplicates rather than
// letting a later entry silently overwrite an earlier one.
type Slowdown struct {
	Node cluster.NodeID
	// CPU, Disk and Net scale the corresponding rates. 0.5 = half speed.
	CPU, Disk, Net float64
}

// ReadErrors injects transient block-read failures: every read attempt
// independently fails with probability Prob. Failures are a deterministic
// function of (seed, block, node, attempt), so retries on another node or
// a later attempt can succeed while replays of the same attempt always
// fail identically.
type ReadErrors struct {
	Prob float64
}

// Plan is one job's complete fault schedule.
type Plan struct {
	// Seed drives the deterministic transient-error hash.
	Seed int64
	// Crashes lists node-crash events.
	Crashes Crashes
	// Slow lists degraded nodes.
	Slow Slowdowns
	// Read configures transient read errors.
	Read ReadErrors
}

// Crashes is a plan's crash list; *Crashes is a flag.Value spelled
// N@T[:REJOIN],... — node N dies at T s and, given REJOIN, comes back at
// REJOIN s.
type Crashes []Crash

// Slowdowns is a plan's slowdown list; *Slowdowns is a flag.Value spelled
// NxF,... — node N runs its CPU, disk and NIC at factor F of full speed.
// String spells each entry by its CPU factor.
type Slowdowns []Slowdown

// String spells the list as Set parses it.
func (cs *Crashes) String() string {
	parts := make([]string, len(*cs))
	for i, c := range *cs {
		parts[i] = fmt.Sprintf("%d@%g", c.Node, c.At)
		if c.RejoinAt != 0 {
			parts[i] += fmt.Sprintf(":%g", c.RejoinAt)
		}
	}
	return strings.Join(parts, ",")
}

// Set replaces the list with the one s spells ("" is the empty list).
func (cs *Crashes) Set(s string) error {
	var out Crashes
	for _, e := range entries(s) {
		node, when, _ := strings.Cut(e, "@")
		at, rejoin, ok := strings.Cut(when, ":")
		if !ok {
			rejoin = "0"
		}
		n, f, err := fields(node, at, rejoin)
		if err != nil {
			return fmt.Errorf("%w: bad crash %q (want N@T[:REJOIN])", ErrBadPlan, e)
		}
		out = append(out, Crash{Node: n, At: f[0], RejoinAt: f[1]})
	}
	*cs = out
	return nil
}

// String spells the list as Set parses it.
func (ss *Slowdowns) String() string {
	parts := make([]string, len(*ss))
	for i, s := range *ss {
		parts[i] = fmt.Sprintf("%dx%g", s.Node, s.CPU)
	}
	return strings.Join(parts, ",")
}

// Set replaces the list with the one s spells ("" is the empty list).
func (ss *Slowdowns) Set(s string) error {
	var out Slowdowns
	for _, e := range entries(s) {
		node, factor, _ := strings.Cut(e, "x")
		n, f, err := fields(node, factor)
		if err != nil {
			return fmt.Errorf("%w: bad slowdown %q (want NxF)", ErrBadPlan, e)
		}
		out = append(out, Slowdown{Node: n, CPU: f[0], Disk: f[0], Net: f[0]})
	}
	*ss = out
	return nil
}

// entries splits a comma-separated list; "" has no entries.
func entries(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// fields parses the node number and the numbers of one list entry.
func fields(node string, nums ...string) (cluster.NodeID, []float64, error) {
	n, err := strconv.Atoi(node)
	f := make([]float64, len(nums))
	for i := range nums {
		if err == nil {
			f[i], err = strconv.ParseFloat(nums[i], 64)
		}
	}
	return cluster.NodeID(n), f, err
}

// Empty reports whether the plan injects nothing: no crash, no slowdown and
// no read errors. A caller runs an empty plan as no plan at all, which
// keeps the engine on its fault-free path.
func (p *Plan) Empty() bool {
	return len(p.Crashes) == 0 && len(p.Slow) == 0 && p.Read.Prob == 0
}

// Validate checks the plan against a cluster of n nodes.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for _, c := range p.Crashes {
		if int(c.Node) < 0 || int(c.Node) >= n {
			return fmt.Errorf("%w: crash node %d out of range [0,%d)", ErrBadPlan, c.Node, n)
		}
		if c.At < 0 || math.IsNaN(c.At) || math.IsInf(c.At, 0) {
			return fmt.Errorf("%w: crash time %v", ErrBadPlan, c.At)
		}
		if c.RejoinAt != 0 && (math.IsNaN(c.RejoinAt) || math.IsInf(c.RejoinAt, 0)) {
			return fmt.Errorf("%w: rejoin time %v", ErrBadPlan, c.RejoinAt)
		}
	}
	// Two crash windows covering the same instant would double-fire kernel
	// crash events for the node; a node may only crash again after it has
	// rejoined. Sort per-node windows by start and require each to begin at
	// or after the previous one's rejoin (a permanent crash ends never).
	byNode := map[cluster.NodeID][]Crash{}
	for _, c := range p.Crashes {
		byNode[c.Node] = append(byNode[c.Node], c)
	}
	for id, cs := range byNode {
		sort.Slice(cs, func(i, j int) bool { return cs[i].At < cs[j].At })
		for i := 1; i < len(cs); i++ {
			prev := cs[i-1]
			if prev.permanent() {
				return fmt.Errorf("%w: node %d crashes at %v after permanent crash at %v",
					ErrBadPlan, id, cs[i].At, prev.At)
			}
			if cs[i].At < prev.RejoinAt {
				return fmt.Errorf("%w: node %d crash windows overlap ([%v,%v) and [%v,...))",
					ErrBadPlan, id, prev.At, prev.RejoinAt, cs[i].At)
			}
		}
	}
	// The injector keys slowdowns by node, so two entries for one node
	// would silently resolve last-write-wins; reject the ambiguity instead.
	slowSeen := map[cluster.NodeID]bool{}
	for _, s := range p.Slow {
		if int(s.Node) < 0 || int(s.Node) >= n {
			return fmt.Errorf("%w: slowdown node %d out of range [0,%d)", ErrBadPlan, s.Node, n)
		}
		if slowSeen[s.Node] {
			return fmt.Errorf("%w: duplicate slowdown entry for node %d", ErrBadPlan, s.Node)
		}
		slowSeen[s.Node] = true
		for _, f := range []float64{s.CPU, s.Disk, s.Net} {
			// Factor 0 is "unchanged" by definition (see Slowdown), so the
			// open interval check is only on negatives and >1.
			if f < 0 || f > 1 || math.IsNaN(f) {
				return fmt.Errorf("%w: slowdown factor %v not in [0,1]", ErrBadPlan, f)
			}
		}
	}
	if p.Read.Prob < 0 || p.Read.Prob >= 1 || math.IsNaN(p.Read.Prob) {
		return fmt.Errorf("%w: read-error probability %v not in [0,1)", ErrBadPlan, p.Read.Prob)
	}
	return nil
}

// TraceEvents renders the plan's static configuration as t=0 timeline
// events: one faults.plan instant summarizing the schedule, plus one
// node.slowdown instant per degraded node (crashes are recorded when they
// are *delivered*, by the engine, so the timeline shows effect times).
// A nil or empty plan yields nil.
func (p *Plan) TraceEvents() []trace.Event {
	if p == nil {
		return nil
	}
	var out []trace.Event
	if !p.Empty() {
		ev := trace.At(0, trace.EvFaultPlan)
		ev.Count = len(p.Crashes)
		ev.Detail = fmt.Sprintf("crashes=%d slow=%d read-error-prob=%g seed=%d",
			len(p.Crashes), len(p.Slow), p.Read.Prob, p.Seed)
		out = append(out, ev)
	}
	for _, s := range p.Slow {
		ev := trace.At(0, trace.EvNodeSlowdown)
		ev.Node = int(s.Node)
		ev.Detail = fmt.Sprintf("cpu=%g disk=%g net=%g", s.CPU, s.Disk, s.Net)
		out = append(out, ev)
	}
	return out
}

// RetryPolicy bounds task re-execution after crashes and read errors.
type RetryPolicy struct {
	// MaxAttempts caps a task's own executions (first run included;
	// speculative backups are bounded separately and never spend it).
	// Zero selects DefaultMaxAttempts.
	MaxAttempts int
	// Backoff is the delay before the first retry, in simulated seconds;
	// each further retry doubles it. Zero selects DefaultBackoff.
	Backoff float64
	// MaxDelay caps the exponential backoff; without it, large attempt
	// numbers overflow 2^(n−1) to +Inf and park retries forever. Zero
	// selects DefaultMaxDelay.
	MaxDelay float64
}

// Default retry parameters (Hadoop defaults to 4 map attempts).
const (
	DefaultMaxAttempts = 4
	DefaultBackoff     = 0.5
	DefaultMaxDelay    = 60
)

// WithDefaults fills zero fields.
func (r RetryPolicy) WithDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = DefaultMaxAttempts
	}
	if r.Backoff <= 0 {
		r.Backoff = DefaultBackoff
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = DefaultMaxDelay
	}
	return r
}

// Delay returns the backoff before retry number n (1-based): Backoff ×
// 2^(n−1), exponential in simulated time, clamped at MaxDelay so
// adversarial attempt counts cannot overflow to +Inf.
func (r RetryPolicy) Delay(n int) float64 {
	if n < 1 {
		n = 1
	}
	cap := r.MaxDelay
	if cap <= 0 {
		cap = DefaultMaxDelay
	}
	d := r.Backoff * math.Pow(2, float64(n-1))
	if d > cap || math.IsNaN(d) {
		return cap
	}
	return d
}

// Injector answers the engine's fault queries for one run. A nil-plan
// injector is inert (reports a healthy cluster) so the engine needs no
// branching on "faults configured?".
type Injector struct {
	crashes []Crash // sorted by (At, Node)
	slow    map[cluster.NodeID]Slowdown
	prob    float64
	seed    int64
}

// NewInjector validates the plan against n nodes and builds the injector.
// A nil plan yields an inert injector and no error.
func NewInjector(p *Plan, n int) (*Injector, error) {
	in := &Injector{slow: map[cluster.NodeID]Slowdown{}}
	if p == nil {
		return in, nil
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	in.seed = p.Seed
	in.prob = p.Read.Prob
	in.crashes = append(in.crashes, p.Crashes...)
	sort.SliceStable(in.crashes, func(i, j int) bool {
		if in.crashes[i].At != in.crashes[j].At {
			return in.crashes[i].At < in.crashes[j].At
		}
		return in.crashes[i].Node < in.crashes[j].Node
	})
	for _, s := range p.Slow {
		in.slow[s.Node] = s
	}
	return in, nil
}

// Crashes returns the crash events sorted by time (callers must not
// mutate the slice).
func (in *Injector) Crashes() []Crash { return in.crashes }

// Schedule posts the plan's crash schedule into the kernel as events of
// the given kind and priority: one event per distinct crash instant, so
// simultaneous crashes arrive as one delivery group and blocks losing
// every replica at once are detected as unrecoverable. The handler owns
// the node grouping (via Crashes); the event itself only marks the
// instant. Returns the number of events posted.
func (in *Injector) Schedule(k *sim.Kernel, kind sim.Kind, prio int8) int {
	n := 0
	for i := 0; i < len(in.crashes); {
		j := i
		for j < len(in.crashes) && in.crashes[j].At == in.crashes[i].At {
			j++
		}
		k.Post(sim.Event{At: in.crashes[i].At, Kind: kind, Prio: prio})
		i = j
		n++
	}
	return n
}

// DeadAt reports whether the node is down at simulated time t: some crash
// with At ≤ t has no rejoin, or rejoins after t.
func (in *Injector) DeadAt(id cluster.NodeID, t float64) bool {
	for _, c := range in.crashes {
		if c.Node != id || c.At > t {
			continue
		}
		if c.permanent() || c.RejoinAt > t {
			return true
		}
	}
	return false
}

// RejoinAfter returns the earliest time strictly greater than t at which
// the (currently dead) node is alive again; ok is false when the node
// never returns.
func (in *Injector) RejoinAfter(id cluster.NodeID, t float64) (float64, bool) {
	best, ok := 0.0, false
	for _, c := range in.crashes {
		if c.Node != id || c.At > t {
			continue
		}
		if c.permanent() {
			return 0, false
		}
		if c.RejoinAt > t && (!ok || c.RejoinAt < best) {
			best, ok = c.RejoinAt, true
		}
	}
	if !ok {
		return 0, false
	}
	// The rejoin must not itself fall inside a later crash interval.
	if in.DeadAt(id, best) {
		return in.RejoinAfter(id, best)
	}
	return best, ok
}

// scaled applies a slowdown factor (0 = unchanged).
func scaled(base, f float64) float64 {
	if f > 0 {
		return base * f
	}
	return base
}

// CPURate returns the node's effective CPU rate.
func (in *Injector) CPURate(id cluster.NodeID, base float64) float64 {
	return scaled(base, in.slow[id].CPU)
}

// DiskRate returns the node's effective disk rate.
func (in *Injector) DiskRate(id cluster.NodeID, base float64) float64 {
	return scaled(base, in.slow[id].Disk)
}

// NetRate returns the node's effective NIC rate.
func (in *Injector) NetRate(id cluster.NodeID, base float64) float64 {
	return scaled(base, in.slow[id].Net)
}

// ReadFails reports whether read attempt number attempt (1-based) of the
// given block on the given node suffers a transient error. The outcome is
// a pure hash of (seed, block, node, attempt) — independent of call order,
// so simulations replay bit-identically.
func (in *Injector) ReadFails(block, node, attempt int) bool {
	if in.prob <= 0 {
		return false
	}
	h := splitmix64(uint64(in.seed)<<1 ^ 0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(block)*0xbf58476d1ce4e5b9)
	h = splitmix64(h ^ uint64(node)*0x94d049bb133111eb)
	h = splitmix64(h ^ uint64(attempt))
	// Top 53 bits → uniform float64 in [0,1).
	u := float64(h>>11) / float64(1<<53)
	return u < in.prob
}

// splitmix64 is one SplitMix64 step: the golden-ratio increment, then
// the shared finalizer.
func splitmix64(x uint64) uint64 {
	return hashutil.Mix64(x + 0x9e3779b97f4a7c15)
}
