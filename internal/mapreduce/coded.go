package mapreduce

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"datanet/internal/cluster"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// Coded k-of-n execution (straggle.ModeCoded): the filter phase's task
// list is rewritten so every group of k consecutive tasks carries
// n−k > 0 parity units — pre-placed coded blocks whose filter output is
// an MDS-coded combination of the group's fragments. Any k unit
// completions satisfy a group; the remaining in-flight units are killed
// and queued ones dropped, so a slow node's units simply never finish
// and the barrier does not wait for them. Missing systematic fragments
// are reconstructed at the barrier by a real GF(256) Reed–Solomon
// decode (see internal/straggle), charged to the node that completed
// the group.

// parityBlockBase offsets synthetic parity block IDs far above any real
// block ID so they can never collide with the filesystem's blocks.
const parityBlockBase hdfs.BlockID = 1 << 30

// codedState tracks per-group completion for the filter simulation.
type codedState struct {
	layout straggle.Layout

	need      []int  // per group: k completions required
	live      []int  // per group: live committed units
	satisfied []bool // per group
	satCount  int
	satAt     []float64        // per group: instant of the k-th completion
	satNode   []cluster.NodeID // per group: node of the k-th completion
	// abandoned marks parity units given up for good (attempt cap or all
	// replicas lost); an abandoned unit never blocks the group — the k
	// threshold is simply met by other units or not at all.
	abandoned []bool // per unit
	// decoded marks systematic units whose output was produced by the
	// barrier decode instead of a real attempt.
	decoded []bool // per systematic unit
}

// buildCoded rewrites the task list for coded execution: groups of
// straggle.GroupSize consecutive tasks each gain ceil(k/rate)−k parity
// units. A parity unit models a pre-computed coded block (created at
// ingest alongside the data, like an erasure-coded storage tier): its size
// and scheduling weight are the group's maxima, and its replicas are
// spread deterministically across the cluster away from any single rack
// hot spot. Returns the state plus the extended task and truth slices
// (parity truth entries are indexed by the parity task's Index), and
// reports the layout in res; under any other mode it returns a nil state
// and the slices as they are.
func buildCoded(mit straggle.Config, numBlocks int, tasks []sched.Task, truth []int64, topo *cluster.Topology, res *Result) (*codedState, []sched.Task, []int64) {
	if mit.Mode != straggle.ModeCoded {
		return nil, tasks, truth
	}
	layout := straggle.NewLayout(len(tasks), straggle.GroupSize, mit.Rate)
	res.CodedGroups, res.CodedParityUnits = len(layout.Groups), layout.ParityUnits()
	c := &codedState{
		layout:    layout,
		need:      make([]int, len(layout.Groups)),
		live:      make([]int, len(layout.Groups)),
		satisfied: make([]bool, len(layout.Groups)),
		satAt:     make([]float64, len(layout.Groups)),
		satNode:   make([]cluster.NodeID, len(layout.Groups)),
		abandoned: make([]bool, layout.Total()),
		decoded:   make([]bool, layout.Sys),
	}
	truth = slices.Clip(truth) // appends below never write the caller's array
	ordinal := 0
	for gi, g := range layout.Groups {
		c.need[gi] = g.K
		// A parity unit's size, weight and matched volume are the group's
		// worst case: an MDS combination is as large as its largest input.
		var maxW, maxB, maxT int64
		repl := 1
		for u := g.SysStart; u < g.SysStart+g.K; u++ {
			maxW, maxB = max(maxW, tasks[u].Weight), max(maxB, tasks[u].Bytes)
			maxT, repl = max(maxT, truth[tasks[u].Index]), max(repl, len(tasks[u].Locations))
		}
		repl = min(repl, topo.N())
		for j := 0; j < g.Par; j++ {
			locs := make([]cluster.NodeID, repl)
			base := gi*7 + j*3
			for i := range locs {
				locs[i] = cluster.NodeID((base + i) % topo.N()) // ids are dense
			}
			tasks = append(tasks, sched.Task{
				Block:     parityBlockBase + hdfs.BlockID(ordinal),
				Index:     numBlocks + ordinal,
				Weight:    maxW,
				Bytes:     maxB,
				Locations: locs,
			})
			truth = append(truth, maxT)
			ordinal++
		}
	}
	return c, tasks, truth
}

// The seam: every k-of-n decision the filter phase makes is a method on
// *codedState, safe on a nil receiver (coded mode off), where it gives the
// plain phase's answer.

// groupKill is the trace detail of an attempt killed because its group
// was satisfied without it.
const groupKill = "coded-k-of-n"

// isParity reports whether the unit is a parity unit.
func (c *codedState) isParity(li int) bool { return c != nil && c.layout.IsParity(li) }

// obsolete reports whether the unit's group is already satisfied, making
// further attempts of an unfinished unit redundant.
func (c *codedState) obsolete(li int) bool { return c != nil && c.satisfied[c.layout.GroupOf(li)] }

// unfinished is the filter barrier: how many tasks are still missing — or,
// coded, how many groups lack k completions — and what they are. The phase
// is complete when it is zero.
func (c *codedState) unfinished(s *filterSim) (int, string) {
	if c == nil {
		return len(s.tasks) - s.doneCount, "filter tasks unfinished"
	}
	return len(c.layout.Groups) - c.satCount, "coded groups unsatisfied"
}

// chargesWaste is the wasted-work gate: a killed attempt's time and bytes
// count as wasted only under a mitigation mode — coded execution, or the
// speculation engine spec. A detector-only run reports none.
func (c *codedState) chargesWaste(spec *straggle.SpecEngine) bool { return c != nil || spec != nil }

// abandon gives up a parity unit that has exhausted its attempts and
// reports whether it did: parity units are pure redundancy, so running out
// abandons the unit instead of failing the job — the group can still be
// satisfied by its other units.
func (c *codedState) abandon(li int, exhausted bool) bool {
	if !exhausted || !c.isParity(li) {
		return false
	}
	c.abandoned[li] = true
	return true
}

// commit is the commit hook: the unit's group gains one live completion;
// the k-th completion satisfies the group, kills its remaining in-flight
// attempts and records the satisfaction instant the barrier decode will
// anchor to.
func (c *codedState) commit(s *filterSim, r *runAttempt) {
	if c == nil {
		return
	}
	g := c.layout.GroupOf(r.li)
	c.live[g]++
	if c.satisfied[g] || c.live[g] < c.need[g] {
		return
	}
	c.satisfied[g] = true
	c.satCount++
	c.satAt[g] = r.end
	c.satNode[g] = r.node
	s.killGroup(g, r.end)
}

// uncommit is the crash-uncommit hook: a destroyed unit output drops the
// group's live count; falling below k re-opens the group and revives
// whatever units can still run, so the phase cannot wedge on work that was
// dropped while the group looked complete.
func (c *codedState) uncommit(s *filterSim, li int, t float64) {
	if c == nil {
		return
	}
	g := c.layout.GroupOf(li)
	c.live[g]--
	if !c.satisfied[g] || c.live[g] >= c.need[g] {
		return
	}
	c.satisfied[g] = false
	c.satCount--
	s.reviveGroup(g, t, li)
}

// reviveGroup requeues the units of a re-opened group that were killed or
// dropped while it looked complete — after an un-commit they are the only
// spare redundancy the group has left. It is the one producer of queue
// entries outside an attempt's own lifecycle, so the engine's invariant —
// at most one live non-duplicate attempt or queue entry per unit — is
// kept here: a unit is left alone when it is done or abandoned, when the
// master believes it running (an attempt in flight, or voided by a crash
// the master has yet to respond to: respond requeues it), when it is
// already queued, when the picker has not handed it out yet (it will),
// and when it is the un-committed unit itself (the caller requeues it,
// with the failure backoff).
func (s *filterSim) reviveGroup(g int, t float64, uncommitted int) {
	queued := make(map[int]bool)
	for _, it := range s.retries {
		queued[it.li] = true
	}
	for _, crash := range s.pending {
		for _, li := range crash.voided {
			queued[li] = true
		}
	}
	c := s.coded
	for _, u := range c.layout.Groups[g].Units() {
		if u == uncommitted || !s.handed[u] || s.done(u) || c.abandoned[u] || len(s.inflight[u]) > 0 || queued[u] {
			continue
		}
		if s.exhausted(u) || s.replicasGone(u) {
			c.abandon(u, true)
			continue
		}
		s.postRetry(retryItem{readyAt: t, li: u})
	}
}

// killGroup kills the group's in-flight attempts once it is satisfied:
// their completions are orphaned (generation bump), the slots free
// immediately, and the burned time is charged to wasted work — exactly
// the cost the makespan win is bought with.
func (s *filterSim) killGroup(g int, now float64) {
	var doomed []*runAttempt
	for _, u := range s.coded.layout.Groups[g].Units() {
		if !s.done(u) {
			doomed = append(doomed, s.inflight[u]...)
		}
	}
	// (node, slot) order, as a walk over every running attempt would find them.
	slices.SortFunc(doomed, func(a, b *runAttempt) int { return cmp.Compare(s.ord(a), s.ord(b)) })
	for _, r := range doomed {
		ord := s.ord(r)
		s.abort(r, now, groupKill)
		s.gens[ord]++
		s.postSlotFree(now, r.node, r.slot, s.gens[ord])
	}
}

// decode runs the barrier decode pass after the kernel settles: for every
// group with missing systematic fragments, the node that completed the
// group fetches the surviving fragments and reconstructs the missing ones,
// extending the filter barrier by the decode span. The reconstructed
// fragments then enter the commit ledger on the decode node like any other
// filter output (the analysis phase processes them there; a later crash of
// that node loses them like any other fragment).
func (c *codedState) decode(s *filterSim) {
	if c == nil {
		return
	}
	for gi, g := range c.layout.Groups {
		var missing []int
		for u := g.SysStart; u < g.SysStart+g.K; u++ {
			if !s.done(u) {
				missing = append(missing, u)
			}
		}
		if len(missing) == 0 {
			continue
		}
		id := c.satNode[gi]
		node := s.topo.Node(id)
		start := c.satAt[gi]
		var missingBytes int64
		for _, u := range missing {
			missingBytes += s.truth[s.tasks[u].Index]
		}
		dur := s.cfg.TaskOverhead +
			float64(missingBytes)/s.inj.NetRate(id, node.NetRate) +
			float64(missingBytes)*straggle.DecodeCostFactor/s.inj.CPURate(id, node.CPURate)
		for _, u := range missing {
			c.decoded[u] = true
			s.secure(&runAttempt{li: u, task: s.tasks[u], start: start, end: start + dur,
				compute: dur, matched: s.truth[s.tasks[u].Index], attempt: s.attempts[u], node: id})
		}
		s.res.NodeBusy[id] += dur
		s.res.CodedDecodes++
		s.res.CodedDecodedBytes += missingBytes
		if s.rec.Enabled() {
			s.rec.Record(trace.Event{T: start, Type: trace.EvCodeDecode,
				Node: int(id), Block: -1, Dur: dur, Bytes: missingBytes,
				Count: len(missing), Detail: fmt.Sprintf("group %d: %d of %d fragments rebuilt", gi, len(missing), g.K)})
		}
	}
}

// rebuild returns the systematic unit count (parity units follow and carry
// no records) and, for a coded run, every fragment the simulation decoded,
// rebuilt with the real Reed–Solomon arithmetic: the executed output maps
// the reconstructed bytes, not the block, so a decode bug is an output
// mismatch against the uncoded run, not a silently correct simulation.
func (c *codedState) rebuild(s *filterSim, blocks []*hdfs.Block) (int, map[int][]records.Record, error) {
	if c == nil {
		return len(s.tasks), nil, nil
	}
	rebuilt := make(map[int][]records.Record)
	for u, decoded := range c.decoded {
		if _, ok := rebuilt[u]; decoded && !ok {
			if err := s.reconstruct(blocks, c.layout.GroupOf(u), rebuilt); err != nil {
				return 0, nil, err
			}
		}
	}
	return c.layout.Sys, rebuilt, nil
}

// reconstruct rebuilds one group's decoded fragments into rebuilt: encode
// the group's fragments, erase the ones the simulation lost, reconstruct
// from the k survivors and parse the decoded units' records back out.
func (s *filterSim) reconstruct(blocks []*hdfs.Block, gi int, rebuilt map[int][]records.Record) error {
	c, g := s.coded, s.coded.layout.Groups[gi]
	// Systematic fragments as byte shards (the filter output each unit would
	// have produced), zero-padded to the group's longest.
	data := make([][]byte, g.K)
	shardLen := 0
	for i := range data {
		data[i] = encodeFragment(blocks[s.tasks[g.SysStart+i].Index], s.cfg)
		shardLen = max(shardLen, len(data[i]))
	}
	for i, sh := range data {
		data[i] = append(sh, make([]byte, shardLen-len(sh))...)
	}
	code, err := straggle.NewCode(g.K, g.N())
	if err != nil {
		return fmt.Errorf("mapreduce: coded group %d: %w", gi, err)
	}
	parity, err := code.ParityShards(data)
	if err != nil {
		return fmt.Errorf("mapreduce: coded group %d: %w", gi, err)
	}
	// Erase everything the simulation did not complete; keep only the
	// units whose output physically survived.
	shards := make([][]byte, g.N())
	for i := 0; i < g.K; i++ {
		u := g.SysStart + i
		if s.done(u) && !c.decoded[u] {
			shards[i] = data[i] // Reconstruct only fills the nil entries
		}
	}
	for j := 0; j < g.Par; j++ {
		if s.done(g.ParStart + j) {
			shards[g.K+j] = parity[j]
		}
	}
	if err := code.Reconstruct(shards); err != nil {
		return fmt.Errorf("mapreduce: coded group %d decode: %w", gi, err)
	}
	for i := 0; i < g.K; i++ {
		if u := g.SysStart + i; c.decoded[u] {
			if rebuilt[u], err = decodeFragment(shards[i]); err != nil {
				return fmt.Errorf("mapreduce: coded group %d unit %d: %w", gi, u, err)
			}
		}
	}
	return nil
}

// encodeFragment serializes one block's filtered records exactly (full
// float bits, no quantization) behind a 4-byte length: the byte stream a
// filter unit stores locally and the erasure code protects.
func encodeFragment(b *hdfs.Block, cfg Config) []byte {
	buf := make([]byte, 4) // room for the length prefix
	for _, r := range b.Records {
		if cfg.TargetSub != "" && r.Sub != cfg.TargetSub {
			continue
		}
		buf = append(binary.AppendUvarint(buf, uint64(len(r.Sub))), r.Sub...)
		buf = binary.AppendVarint(buf, r.Time)
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Rating))
		buf = append(binary.AppendUvarint(buf, uint64(len(r.Payload))), r.Payload...)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// decodeFragment parses a reconstructed shard (4-byte length prefix plus
// the fragment, zero-padded) back into records.
func decodeFragment(shard []byte) ([]records.Record, error) {
	if len(shard) < 4 {
		return nil, fmt.Errorf("mapreduce: fragment shard too short (%d bytes)", len(shard))
	}
	n := binary.BigEndian.Uint32(shard[:4])
	if int(n) > len(shard)-4 {
		return nil, fmt.Errorf("mapreduce: fragment length %d exceeds shard", n)
	}
	data := shard[4 : 4+n]
	var out []records.Record
	for len(data) > 0 {
		var r records.Record
		subLen, k := binary.Uvarint(data)
		if k <= 0 || int(subLen) > len(data)-k {
			return nil, fmt.Errorf("mapreduce: corrupt fragment (sub length)")
		}
		data = data[k:]
		r.Sub = string(data[:subLen])
		data = data[subLen:]
		t, k2 := binary.Varint(data)
		if k2 <= 0 {
			return nil, fmt.Errorf("mapreduce: corrupt fragment (time)")
		}
		r.Time = t
		data = data[k2:]
		if len(data) < 8 {
			return nil, fmt.Errorf("mapreduce: corrupt fragment (rating)")
		}
		r.Rating = math.Float64frombits(binary.BigEndian.Uint64(data[:8]))
		data = data[8:]
		payLen, k3 := binary.Uvarint(data)
		if k3 <= 0 || int(payLen) > len(data)-k3 {
			return nil, fmt.Errorf("mapreduce: corrupt fragment (payload length)")
		}
		data = data[k3:]
		r.Payload = string(data[:payLen])
		data = data[payLen:]
		out = append(out, r)
	}
	return out, nil
}
