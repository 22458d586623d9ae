package clusterd

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/elasticmap"
	"datanet/internal/records"
	"datanet/internal/server"
)

// testConfig is the canonical small-cluster shape: heartbeats every
// logical second, suspicion after three missed, shipments land one tick
// after publish.
func testConfig(shards, replicas int) Config {
	return Config{
		Shards:   shards,
		Replicas: replicas,
		Detect:   detect.Config{Mode: detect.Heartbeat, Interval: 1, Timeout: 3},
	}
}

func tinyArray(sub string, n int) *elasticmap.Array {
	recs := make([]records.Record, n)
	for i := range recs {
		recs[i] = records.Record{Sub: sub, Time: int64(i), Rating: 3, Payload: "pp"}
	}
	return elasticmap.Build([][]records.Record{recs}, elasticmap.Options{Alpha: 0.5})
}

// seed loads names into the cluster, one tiny array each.
func seed(t *testing.T, c *Cluster, names []string) {
	t.Helper()
	for _, name := range names {
		if err := c.Load(name, tinyArray(name, 10)); err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
	}
}

// tickUntilConverged advances the logical clock until Converged or the
// tick budget runs out.
func tickUntilConverged(t *testing.T, c *Cluster, from float64, budget int) float64 {
	t.Helper()
	now := from
	for i := 0; i < budget; i++ {
		now++
		c.Tick(now)
		if c.Converged() == nil {
			return now
		}
	}
	t.Fatalf("not converged after %d ticks: %v", budget, c.Converged())
	return now
}

func testNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("arr-%02d", i)
	}
	return out
}

func TestBootstrapAssignsDisjointReplicaSets(t *testing.T) {
	c, err := New(testConfig(4, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	tv := c.Topology()
	for _, sv := range tv.Map {
		if sv.Primary < 0 {
			t.Fatalf("shard %d bootstrapped leaderless", sv.Shard)
		}
		if len(sv.Followers) != 2 {
			t.Fatalf("shard %d has %d followers, want 2", sv.Shard, len(sv.Followers))
		}
		for _, f := range sv.Followers {
			if f == sv.Primary {
				t.Fatalf("shard %d: node %d is both primary and follower", sv.Shard, f)
			}
		}
	}
	seed(t, c, testNames(8))
	if err := c.Converged(); err != nil {
		t.Fatalf("freshly seeded cluster not converged: %v", err)
	}
	census := c.PrimaryCensus()
	for si, owners := range census {
		if len(owners) != 1 {
			t.Fatalf("shard %d claimed by %v", si, owners)
		}
	}
}

func TestAppendShipsToFollowersAsync(t *testing.T) {
	c, err := New(testConfig(2, 2), 4)
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(4)
	seed(t, c, names)
	sn, err := c.Append(names[0], tinyArray(names[0], 5))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Epoch != 2 {
		t.Fatalf("append epoch %d, want 2", sn.Epoch)
	}
	// Shipping is asynchronous: immediately after the ack the cluster is
	// not converged (followers behind), one tick later it is.
	if c.Converged() == nil {
		t.Fatal("converged immediately after append; shipping should be async")
	}
	tickUntilConverged(t, c, 0, 5)
	got, stale, err := c.Read(names[0])
	if err != nil || stale || got.Epoch != 2 {
		t.Fatalf("read after convergence: epoch %d stale %v err %v", got.Epoch, stale, err)
	}
}

func TestNotLeaderRouting(t *testing.T) {
	c, err := New(testConfig(2, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(2)
	seed(t, c, names)
	primary := cluster.NodeID(c.Topology().Map[ShardOf(names[0], 2)].Primary)
	for _, id := range c.MemberIDs() {
		if id == primary {
			continue
		}
		c.mu.Lock()
		_, err := c.writeAt(id, names[0], server.AppendTo(tinyArray(names[0], 1)), true)
		c.mu.Unlock()
		if !errors.Is(err, ErrNotLeader) {
			t.Fatalf("append at non-leader %d: %v, want ErrNotLeader", id, err)
		}
		if _, _, err := c.ReadAt(id, names[0]); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("read at non-leader %d: %v, want ErrNotLeader", id, err)
		}
	}
}

// The heart of the failover contract: crash a primary with an acked but
// unshipped epoch. The promoted follower must keep serving the array —
// flagged stale while below the acked high-water mark — and the first
// post-failover append must jump past every orphaned epoch.
func TestFailoverFlagsStaleReadsAndJumpsEpochs(t *testing.T) {
	cfg := testConfig(1, 2)
	// The shipping backlog outlives the detection timeout (3), so the
	// failover fences the still-in-flight epoch — the orphaning scenario.
	cfg.ShipDelay = 6
	c, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	name := "orphan-me"
	if err := c.Load(name, tinyArray(name, 10)); err != nil {
		t.Fatal(err)
	}
	primary := cluster.NodeID(c.Topology().Map[0].Primary)
	// Acked epoch 2 exists only on the primary; the shipment is in flight.
	if _, err := c.Append(name, tinyArray(name, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(primary); err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 10; i++ {
		now++
		c.Tick(now)
		if cluster.NodeID(c.Topology().Map[0].Primary) != primary {
			break
		}
	}
	tv := c.Topology()
	if cluster.NodeID(tv.Map[0].Primary) == primary || tv.Map[0].Primary < 0 {
		t.Fatalf("no failover happened: %+v", tv.Map[0])
	}
	if tv.Map[0].Fence < 2 {
		t.Fatalf("fence not bumped: %d", tv.Map[0].Fence)
	}
	// The winner never saw epoch 2: it serves epoch 1, flagged stale.
	sn, stale, err := c.Read(name)
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if sn.Epoch != 1 || !stale {
		t.Fatalf("post-failover read: epoch %d stale %v, want epoch 1 stale", sn.Epoch, stale)
	}
	// New appends jump past the orphaned lineage and clear the staleness.
	sn2, err := c.Append(name, tinyArray(name, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Epoch != 3 {
		t.Fatalf("post-failover append epoch %d, want 3 (past acked 2)", sn2.Epoch)
	}
	if _, stale, _ := c.Read(name); stale {
		t.Fatal("read still stale after a fresh append")
	}
	stats := c.Stats()
	if stats.Promotions == 0 || stats.Suspicions == 0 {
		t.Fatalf("stats did not record the failover: %+v", stats)
	}
	// The orphaned in-flight shipment must have been fenced out, not
	// applied over the new lineage.
	tickUntilConverged(t, c, now, 20)
	if c.Stats().DroppedShips == 0 {
		t.Fatal("the deposed primary's shipment was not dropped")
	}
}

func TestCrashRejoinWipesAndResyncs(t *testing.T) {
	c, err := New(testConfig(2, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(6)
	seed(t, c, names)
	victim := cluster.NodeID(c.Topology().Map[0].Primary)
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	now := tickUntilConverged(t, c, 0, 20)
	// A quick restart must come back empty and role-free: the control
	// plane re-enlists it and re-ships what it should hold.
	if err := c.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	nd, _ := c.Node(victim)
	if got := len(nd.Store().Names()); got != 0 {
		t.Fatalf("rejoined node still holds %d arrays; restart must wipe", got)
	}
	now = tickUntilConverged(t, c, now, 30)
	for _, name := range names {
		if _, stale, err := c.Read(name); err != nil || stale {
			t.Fatalf("read %q after rejoin cycle: stale %v err %v", name, stale, err)
		}
	}
	_ = now
}

func TestDecommissionHandsOffGracefully(t *testing.T) {
	c, err := New(testConfig(4, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(8)
	seed(t, c, names)
	// Pick a node that leads at least one shard.
	var victim cluster.NodeID = -1
	for _, sv := range c.Topology().Map {
		if sv.Primary >= 0 {
			victim = cluster.NodeID(sv.Primary)
			break
		}
	}
	if err := c.Decommission(victim); err != nil {
		t.Fatal(err)
	}
	tickUntilConverged(t, c, 0, 30)
	for _, id := range c.MemberIDs() {
		if id == victim {
			t.Fatal("decommissioned node still a member after convergence")
		}
	}
	for _, name := range names {
		if _, stale, err := c.Read(name); err != nil || stale {
			t.Fatalf("read %q after decommission: stale %v err %v", name, stale, err)
		}
	}
	if c.Stats().Handoffs == 0 {
		t.Fatal("graceful decommission recorded no handoffs")
	}
	// The last nodes cannot decommission: someone must hold the data.
	ids := c.MemberIDs()
	for _, id := range ids[:len(ids)-1] {
		if err := c.Decommission(id); err != nil {
			t.Fatalf("decommission %d: %v", id, err)
		}
	}
	if err := c.Decommission(ids[len(ids)-1]); err == nil {
		t.Fatal("decommissioning the final node was allowed")
	}
}

func TestAddNodeJoinsReplicaSets(t *testing.T) {
	// Two nodes, one shard, two replicas wanted: under-replicated until a
	// third node arrives.
	c, err := New(testConfig(1, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	seed(t, c, testNames(3))
	if got := len(c.Topology().Map[0].Followers); got != 1 {
		t.Fatalf("bootstrap followers %d, want 1 (only 2 nodes)", got)
	}
	id := c.AddNode()
	tickUntilConverged(t, c, 0, 10)
	tv := c.Topology()
	if got := len(tv.Map[0].Followers); got != 2 {
		t.Fatalf("followers after addnode %d, want 2", got)
	}
	found := false
	for _, f := range tv.Map[0].Followers {
		if cluster.NodeID(f) == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("new node %d not enlisted: %+v", id, tv.Map[0])
	}
}

// A node that crashed but is not yet suspected still counts as eligible,
// so a shard that needs a follower ranks it; enlistment must skip it
// because the role message could not be delivered. Once the node rejoins,
// it fills the slot.
func TestEnlistmentSkipsDownNodeBeforeSuspicion(t *testing.T) {
	c, err := New(testConfig(1, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	sv := c.Topology().Map[0]
	follower := cluster.NodeID(sv.Followers[0])
	spare := cluster.NodeID(3 - sv.Primary - sv.Followers[0])
	if err := c.Crash(spare); err != nil {
		t.Fatal(err)
	}
	// Draining the follower leaves the shard one staying follower short;
	// the spare is the only candidate.
	if err := c.Decommission(follower); err != nil {
		t.Fatal(err)
	}
	tv := c.Topology()
	for _, nv := range tv.Nodes {
		if cluster.NodeID(nv.ID) == spare && nv.Suspected {
			t.Fatalf("spare %d already suspected; the test needs truth-only death", spare)
		}
	}
	if slices.Contains(followersOf(tv.Map[0]), spare) {
		t.Fatalf("down node %d enlisted as follower: %+v", spare, tv.Map[0])
	}
	if err := c.Rejoin(spare); err != nil {
		t.Fatal(err)
	}
	if sv := c.Topology().Map[0]; !slices.Contains(followersOf(sv), spare) {
		t.Fatalf("rejoined node %d not enlisted: %+v", spare, sv)
	}
}

func followersOf(sv ShardView) []cluster.NodeID {
	out := make([]cluster.NodeID, len(sv.Followers))
	for i, f := range sv.Followers {
		out[i] = cluster.NodeID(f)
	}
	return out
}

// Satellite: kill a shard primary mid-append-storm under -race and assert
// the promoted follower converges to a query-equal catalog at a >= epoch.
// Appends, reads, ticks and the crash run on separate goroutines — the
// race detector patrols the snapshot-isolation and locking story while
// the assertions patrol the failover semantics.
func TestFailoverConvergenceUnderAppendStorm(t *testing.T) {
	cfg := testConfig(2, 2)
	c, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	names := testNames(6)
	seed(t, c, names)
	storm := names[0]
	primary := cluster.NodeID(c.Topology().Map[ShardOf(storm, cfg.Shards)].Primary)

	var (
		done atomic.Bool
		// quiet stops the client goroutines while the clock keeps ticking,
		// so the ship queue can drain for the convergence check.
		quiet   atomic.Bool
		crashed atomic.Bool
		// ackedBeforeCrash is the highest epoch acked to the storm client
		// before the crash: the floor the promoted follower must reach.
		ackedBeforeCrash atomic.Uint64
		wg               sync.WaitGroup
	)
	// Clock: one goroutine owns logical time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := 0.0
		for !done.Load() {
			now++
			c.Tick(now)
			time.Sleep(200 * time.Microsecond)
		}
	}()
	// Storm: append relentlessly, riding out the failover window on
	// retries exactly as a loadgen client would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() && !quiet.Load() {
			sn, err := c.Append(storm, tinyArray(storm, 1))
			switch {
			case err == nil:
				if !crashed.Load() {
					ackedBeforeCrash.Store(sn.Epoch)
				}
			case errors.Is(err, ErrNoLeader), errors.Is(err, ErrNotLeader), errors.Is(err, ErrNodeDown):
				time.Sleep(time.Millisecond) // mid-failover: back off, retry
			default:
				t.Errorf("storm append: %v", err)
				return
			}
		}
	}()
	// Reader: concurrent queries must never see a torn snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() && !quiet.Load() {
			for _, name := range names {
				sn, _, err := c.Read(name)
				if err == nil {
					sn.Arr.EstimateDetailed(name)
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	time.Sleep(20 * time.Millisecond) // let the storm build up epochs
	crashed.Store(true)
	if err := c.Crash(primary); err != nil {
		t.Fatal(err)
	}
	// Stage 1: a new primary takes the storm shard while traffic rides
	// through the window on retries.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tv := c.Topology()
		p := tv.Map[ShardOf(storm, cfg.Shards)].Primary
		if p >= 0 && cluster.NodeID(p) != primary {
			break
		}
		if time.Now().After(deadline) {
			done.Store(true)
			wg.Wait()
			t.Fatalf("no promotion within deadline")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // post-failover storm traffic
	// Stage 2: quiesce the clients — the clock keeps ticking — so the
	// in-flight shipments drain and convergence measures repair, not the
	// storm itself.
	quiet.Store(true)
	for c.Converged() != nil {
		if time.Now().After(deadline) {
			done.Store(true)
			wg.Wait()
			t.Fatalf("no convergence after quiescing clients: %v", c.Converged())
		}
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	wg.Wait()

	// The promoted follower serves every array (nothing lost), and the
	// storm array at an epoch at or above everything acked pre-crash.
	for _, name := range names {
		sn, _, err := c.Read(name)
		if err != nil {
			t.Fatalf("read %q after failover: %v", name, err)
		}
		total, _, _ := sn.Arr.EstimateDetailed(name)
		if total <= 0 {
			t.Fatalf("array %q lost its records in the failover", name)
		}
	}
	sn, _, err := c.Read(storm)
	if err != nil {
		t.Fatal(err)
	}
	if floor := ackedBeforeCrash.Load(); sn.Epoch < floor {
		t.Fatalf("promoted lineage at epoch %d, below pre-crash acked %d", sn.Epoch, floor)
	}
	for si, owners := range c.PrimaryCensus() {
		if len(owners) > 1 {
			t.Fatalf("shard %d has %d self-declared primaries: %v", si, len(owners), owners)
		}
	}
}
