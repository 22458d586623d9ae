package mapreduce

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/sched"
	"datanet/internal/sim"
	"datanet/internal/straggle"
	"datanet/internal/trace"
)

// The engine keeps its running attempts in a slice over node-major slot
// ordinals and a per-unit in-flight list; it used to keep a map keyed by
// (node, slot) and sort the keys for every deterministic walk. The tests in
// this file hold the new walks to the old one — slotKey and sortedRunning
// below are that old walk, kept as the test-only comparator — on synthetic
// mid-run states big and shuffled enough that a wrong order shows without
// any golden schedule.

type slotKey struct {
	node cluster.NodeID
	slot int
}

// sortedRunning rebuilds the (node, slot)-keyed map of running attempts and
// returns its keys sorted, with the map.
func sortedRunning(s *filterSim) ([]slotKey, map[slotKey]*runAttempt) {
	running := map[slotKey]*runAttempt{}
	for _, id := range s.topo.IDs() {
		for slot := 0; slot < s.topo.Node(id).Slots; slot++ {
			if r := s.running[s.slotBase[id]+slot]; r != nil {
				running[slotKey{id, slot}] = r
			}
		}
	}
	keys := make([]slotKey, 0, len(running))
	for k := range running {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].slot < keys[j].slot
	})
	return keys, running
}

// midRunSim builds a filter simulation frozen mid-phase: every slot of the
// cluster, visited in shuffled order, has probably been handed a random
// unit (so units run on several nodes at once, with few distinct sizes and
// therefore tied finish times), and a tenth of the units count as done.
func midRunSim(t *testing.T, nodes, units int, mit straggle.Config, seed int64) *filterSim {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	specs := make([]cluster.Node, nodes)
	for i := range specs {
		specs[i].Slots = 1 + i%3
	}
	topo, err := cluster.NewHeterogeneous(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]sched.Task, units)
	truth := make([]int64, units)
	for i := range tasks {
		tasks[i] = sched.Task{Block: hdfs.BlockID(i), Index: i, Weight: 100, Bytes: int64(1+rng.Intn(3)) << 20,
			Locations: []cluster.NodeID{cluster.NodeID(rng.Intn(nodes))}}
		truth[i] = 500
	}
	cfg := Config{TaskOverhead: 0.1, Trace: trace.New()}
	res := &Result{
		NodeBusy:     make(map[cluster.NodeID]float64),
		NodeCompute:  make(map[cluster.NodeID]float64),
		NodeWorkload: make(map[cluster.NodeID]int64),
	}
	coded, tasks, truth := buildCoded(mit, units, tasks, truth, topo, res)
	var spec *straggle.SpecEngine
	if mit.Mode == straggle.ModeSpeculative {
		spec = straggle.NewSpecEngine(mit.Quantile, units, cfg.TaskOverhead)
	}
	s := newFilterSim(cfg, topo, inj, faults.RetryPolicy{}.WithDefaults(), tasks, truth,
		sched.NewLocalityPicker(nil, topo), res, nil, spec, coded)
	var slots []slotKey
	for _, id := range topo.IDs() {
		for slot := 0; slot < topo.Node(id).Slots; slot++ {
			slots = append(slots, slotKey{id, slot})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for _, p := range slots {
		if rng.Intn(5) == 0 {
			continue // idle slot
		}
		li := rng.Intn(len(tasks) / 3) // a third of the units, so many run more than once
		s.dispatch(p.node, p.slot, 0, pick{li: li}, 0)
	}
	for li := range tasks {
		if rng.Intn(10) == 0 {
			s.live[li]++
			s.doneCount++
		}
	}
	return s
}

// TestKillGroupOrder: satisfying a coded group kills its in-flight attempts
// and frees their slots in (node, slot) order — the trace's kill sequence
// and the kernel's slot-free posting sequence both equal the sorted-map
// walk's, on a 288-node cluster with 1, 2 and 3 slots per node.
func TestKillGroupOrder(t *testing.T) {
	mit := straggle.Config{Mode: straggle.ModeCoded, Rate: 0.7}.WithDefaults()
	s := midRunSim(t, 288, 900, mit, 1)
	type freed struct {
		seq             uint64
		node, slot, gen int
	}
	var posted []freed
	s.kern.Observe(kernelObserver(func(e *sim.Event) {
		if e.Kind == evSlotFree {
			posted = append(posted, freed{e.Seq(), int(e.K1), int(e.K2), e.Payload.(int)})
		}
	}))
	killed, reordered := 0, false
	for g := range s.coded.layout.Groups {
		keys, running := sortedRunning(s)
		var want []slotKey
		for _, k := range keys {
			if r := running[k]; s.coded.layout.GroupOf(r.li) == g && !s.done(r.li) {
				want = append(want, k)
			}
		}
		// The in-flight lists hold the group's attempts in dispatch order;
		// the test only bites where that is not already (node, slot) order.
		var chain []slotKey
		for _, u := range s.coded.layout.Groups[g].Units() {
			for _, r := range s.inflight[u] {
				if !s.done(u) {
					chain = append(chain, slotKey{r.node, r.slot})
				}
			}
		}
		reordered = reordered || !reflect.DeepEqual(chain, want)

		s.rec = trace.New()
		now := s.kern.Now() + 1
		from := s.kern.Post(sim.Event{At: now, Kind: evRetryReady}).Seq()
		s.killGroup(g, now)

		var gotKills []slotKey
		for _, ev := range s.rec.Events() {
			if ev.Type != trace.EvTaskKilled || ev.Detail != "coded-k-of-n" {
				t.Fatalf("group %d: unexpected trace event %+v", g, ev)
			}
			// The trace has no slot; pair each kill with the walk's next key
			// and check node, block and attempt.
			if len(gotKills) == len(want) {
				t.Fatalf("group %d: more kills than the walk's %d", g, len(want))
			}
			k := want[len(gotKills)]
			r := running[k]
			if ev.Node != int(k.node) || ev.Block != int(r.task.Block) || ev.Attempt != r.attempt {
				t.Fatalf("group %d: kill %d is node %d block %d attempt %d, the sorted walk has node %d block %d attempt %d",
					g, len(gotKills), ev.Node, ev.Block, ev.Attempt, k.node, r.task.Block, r.attempt)
			}
			gotKills = append(gotKills, k)
		}
		if len(gotKills) != len(want) {
			t.Fatalf("group %d: %d kills, the sorted walk has %d", g, len(gotKills), len(want))
		}
		for _, k := range want {
			if s.running[s.slotBase[k.node]+k.slot] != nil || s.gens[s.slotBase[k.node]+k.slot] != 1 {
				t.Fatalf("group %d: slot %v not freed with a bumped generation", g, k)
			}
		}
		for _, u := range s.coded.layout.Groups[g].Units() {
			if !s.done(u) && len(s.inflight[u]) > 0 {
				t.Fatalf("group %d: unit %d still has attempts in flight", g, u)
			}
		}
		killed += len(want)

		// The slot-free events killGroup posted, in posting order.
		posted = posted[:0]
		if err := s.kern.Run(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(posted, func(i, j int) bool { return posted[i].seq < posted[j].seq })
		var gotFreed []slotKey
		for _, f := range posted {
			if f.seq > from {
				if f.gen != 1 {
					t.Fatalf("group %d: slot-free for node %d slot %d carries generation %d, want 1", g, f.node, f.slot, f.gen)
				}
				gotFreed = append(gotFreed, slotKey{cluster.NodeID(f.node), f.slot})
			}
		}
		if !reflect.DeepEqual(gotFreed, want) {
			t.Fatalf("group %d: slot-free events posted for %v, the sorted walk has %v", g, gotFreed, want)
		}
	}
	if killed < 100 || !reordered {
		t.Fatalf("vacuous: %d attempts killed, reordering needed: %v", killed, reordered)
	}
}

type kernelObserver func(*sim.Event)

func (f kernelObserver) Deliver(e *sim.Event) { f(e) }

// TestSpecScanOrder: the projections a speculation scan hands the engine
// are in (node, slot) order, and a backup avoids the node of the unit's
// slowest running attempt, the first in that order among equals.
func TestSpecScanOrder(t *testing.T) {
	mit := straggle.Config{Mode: straggle.ModeSpeculative, Quantile: 0.75}.WithDefaults()
	s := midRunSim(t, 288, 900, mit, 2)
	keys, running := sortedRunning(s)

	var want []straggle.Projection
	for _, k := range keys {
		if r := running[k]; !s.done(r.li) {
			want = append(want, straggle.Projection{Unit: r.li, Projected: r.end})
		}
	}
	if got := s.projections(); !reflect.DeepEqual(got, want) {
		t.Fatalf("projections are not the sorted walk's:\n got %v\nwant %v", got, want)
	}

	several, tied := 0, 0
	for li := range s.tasks {
		avoid := cluster.NodeID(-1)
		worst, n, ties := -1.0, 0, 0
		for _, k := range keys {
			r := running[k]
			if r.li != li {
				continue
			}
			n++
			if r.end > worst {
				worst, avoid, ties = r.end, k.node, 0
			} else if r.end == worst {
				ties++
			}
		}
		if got := s.slowestNode(li); got != avoid {
			t.Fatalf("unit %d: backup avoids node %d, the sorted walk says %d", li, got, avoid)
		}
		if n > 1 {
			several++
		}
		if ties > 0 {
			tied++
		}
	}
	if several < 50 || tied < 10 {
		t.Fatalf("vacuous: %d units with several attempts, %d with a tie for slowest", several, tied)
	}
}

// TestHeterogeneousSlotsCrashRejoin pins whole Results on a cluster whose
// nodes have 1, 2 and 4 slots — the slot-ordinal mapping's uneven case —
// under a crash-and-rejoin plan, across the oracle and a heartbeat detector,
// plain, speculative and coded. A digest over these arms was recorded at
// the commit before the dense slot state (map-keyed running attempts,
// sorted per walk); when the speculation cadence stopped being a Config
// knob, the speculative arm moved to the default cadence and this digest
// was recorded for the new inputs at the commit before that change. It was
// re-recorded once more when analysis-phase recovery stopped picking a
// suspected helper: only the heartbeat × coded arm moved (node 2, still
// suspected at the filter barrier, no longer redoes node 9's share; node 1
// does).
func TestHeterogeneousSlotsCrashRejoin(t *testing.T) {
	const want = "a8e7bd9d6670f83d77ffb4847330b107921be2a195047c406ae195269af1a3e3"
	base := func() Config {
		return Config{FS: heteroSlotsEnv(t), File: "log", TargetSub: "movie-A", App: apps.WordCount{},
			Picker: sched.NewDataNetPicker, ExecuteApp: true}
	}
	healthy, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	end := healthy.FilterEnd
	plan := heteroSlotsPlan(end)
	sum := sha256.New()
	for _, det := range []detect.Config{{}, {Mode: detect.Heartbeat, Interval: end * 0.05}} {
		for _, mit := range []*straggle.Config{nil,
			{Mode: straggle.ModeSpeculative, Quantile: 0.75},
			{Mode: straggle.ModeCoded, Rate: 0.7}} {
			cfg := base()
			cfg.Faults, cfg.Detect, cfg.Mitigate = plan, det, mit
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("detector %q, mitigation %+v: %v", det.Mode, mit, err)
			}
			if !reflect.DeepEqual(res.Output, healthy.Output) {
				t.Errorf("detector %q, mitigation %+v: output diverges from the healthy run", det.Mode, mit)
			}
			if res.NodeCrashes == 0 || res.TasksRetried == 0 {
				t.Errorf("detector %q, mitigation %+v: the plan no longer bites (%d crashes, %d retries)",
					det.Mode, mit, res.NodeCrashes, res.TasksRetried)
			}
			fmt.Fprintf(sum, "%+v\n", *res)
		}
	}
	if got := fmt.Sprintf("%x", sum.Sum(nil)); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// heteroSlotsEnv is a 12-node, 3-rack cluster whose nodes run 1, 2 and 4
// slots in turn, over a 1 600-record log.
func heteroSlotsEnv(t testing.TB) *hdfs.FileSystem {
	t.Helper()
	specs := make([]cluster.Node, 12)
	for i := range specs {
		specs[i].Slots = []int{1, 2, 4}[i%3]
		specs[i].Rack = i % 3
	}
	topo, err := cluster.NewHeterogeneous(specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: 2048, Replication: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var recs []records.Record
	for i := 0; i < 1600; i++ {
		sub := fmt.Sprintf("bg-%d", i%9)
		if i%4 == 0 {
			sub = "movie-A"
		}
		recs = append(recs, records.Record{Sub: sub, Time: int64(i), Rating: 3, Payload: strings.Repeat("w ", 20)})
	}
	if _, err := fs.Write("log", recs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// heteroSlotsPlan crashes a 4-slot node twice (rejoining in between), a
// 2-slot node at its first crash instant, and a 1-slot node for good, at
// fractions of the healthy filter makespan end; one node runs slow.
func heteroSlotsPlan(end float64) *faults.Plan {
	return &faults.Plan{
		Seed: 5,
		Crashes: []faults.Crash{
			{Node: 2, At: end * 0.3, RejoinAt: end * 0.7}, // 4 slots
			{Node: 7, At: end * 0.3, RejoinAt: end * 1.5}, // 2 slots, same instant
			{Node: 2, At: end * 0.9, RejoinAt: end * 2},   // again after its rejoin
			{Node: 9, At: end * 2.5},                      // 1 slot, for good
		},
		Slow: []faults.Slowdown{{Node: 5, CPU: 0.1, Disk: 0.1}},
	}
}
