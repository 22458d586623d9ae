package hdfs

import (
	"errors"
	"reflect"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/placement"
	"datanet/internal/sim"
)

// hotFixture writes one file and returns a rebalancer that has observed a
// workload concentrated on the file's first block.
func hotFixture(t *testing.T, cfg RebalancerConfig) (*FileSystem, *Rebalancer, *FileInfo) {
	t.Helper()
	fs := newFS(t, 8, Config{BlockSize: 512, Seed: 9})
	info, err := fs.Write("f", mkRecords(80, 40))
	if err != nil {
		t.Fatal(err)
	}
	rb := NewRebalancer(fs, cfg)
	profile := make([]float64, len(info.Blocks))
	profile[0] = 1.0
	if err := rb.ObserveProfile("f", profile); err != nil {
		t.Fatal(err)
	}
	return fs, rb, info
}

func TestRebalancerOffModeNoOp(t *testing.T) {
	fs, rb, info := hotFixture(t, RebalancerConfig{Mode: RebalanceOff})
	before := len(fs.Block(info.Blocks[0]).Replicas)
	plan, err := rb.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("off mode moved %d replicas", len(plan.Moves))
	}
	if got := len(fs.Block(info.Blocks[0]).Replicas); got != before {
		t.Errorf("replica count changed %d -> %d", before, got)
	}
	st := rb.Stats()
	if st.Ticks != 1 || st.Moves != 0 || st.BytesMoved != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRebalancerHotSpotAddsReplica(t *testing.T) {
	fs, rb, info := hotFixture(t, RebalancerConfig{Mode: RebalanceHotSpot})
	hot := info.Blocks[0]
	before := len(fs.Block(hot).Replicas)
	plan, err := rb.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Fatal("hot block triggered no moves")
	}
	for _, m := range plan.Moves {
		if m.From != placement.AddReplica {
			t.Errorf("hot-spot pass relocated instead of adding: %+v", m)
		}
		if BlockID(m.Block) != hot {
			t.Errorf("moved cold block %d; only block %d is hot", m.Block, hot)
		}
	}
	after := len(fs.Block(hot).Replicas)
	if after != before+len(plan.Moves) {
		t.Errorf("replicas %d -> %d with %d adds", before, after, len(plan.Moves))
	}
	// Default cap is replication+1.
	if after > fs.Config().Replication+1 {
		t.Errorf("replica count %d exceeds cap %d", after, fs.Config().Replication+1)
	}
	st := rb.Stats()
	if st.Moves != len(plan.Moves) || st.BytesMoved != plan.BytesMoved() {
		t.Errorf("stats %+v disagree with plan (%d moves, %d bytes)",
			st, len(plan.Moves), plan.BytesMoved())
	}
}

func TestRebalancerHeatDecay(t *testing.T) {
	// Decay runs at the end of an *active* tick; RebalanceOff is a full
	// no-op. Annealing with one step leaves the heat map untouched apart
	// from the decay under test.
	_, rb, info := hotFixture(t, RebalancerConfig{Mode: RebalanceAnneal, AnnealSteps: 1})
	hot := info.Blocks[0]
	h0 := rb.Heat(hot)
	if h0 != 1.0 {
		t.Fatalf("initial heat = %v", h0)
	}
	if _, err := rb.Tick(0); err != nil {
		t.Fatal(err)
	}
	if got := rb.Heat(hot); got != 0.5 {
		t.Errorf("heat after one tick = %v, want 0.5", got)
	}
	// Heat ages out entirely under repeated decay (drifting workloads).
	for i := 0; i < 40; i++ {
		if _, err := rb.Tick(float64(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if got := rb.Heat(hot); got != 0 {
		t.Errorf("heat never evicted: %v", got)
	}
}

func TestRebalancerRespectsView(t *testing.T) {
	fs, rb, _ := hotFixture(t, RebalancerConfig{
		Mode: RebalanceBoth, AnnealSteps: 500, MaxReplicas: 6, MaxMovesPerTick: 16,
	})
	// The name-node's table: node 5 failed (FailNodes suspects it and moves
	// its replicas away), node 2 is draining.
	fs.FailNodes([]cluster.NodeID{5})
	fs.health.Drain(2)
	vetoed := map[cluster.NodeID]bool{2: true, 5: true}
	for tick := 0; tick < 3; tick++ {
		plan, err := rb.Tick(float64(tick))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range plan.Moves {
			if vetoed[m.To] {
				t.Errorf("tick %d moved block %d onto vetoed node %d", tick, m.Block, m.To)
			}
		}
	}
	if rb.Stats().Rejected != 0 {
		t.Errorf("optimizers planned vetoed targets %d times", rb.Stats().Rejected)
	}
	// A plan the table vetoes is refused whole, typed, and applies nothing.
	b := fs.blocks[0]
	for _, c := range []struct {
		to     cluster.NodeID
		reason placement.VetoReason
	}{{2, placement.VetoDecommissioned}, {5, placement.VetoDead}} {
		replicas := append([]cluster.NodeID(nil), b.Replicas...)
		plan := placement.Plan{Moves: []placement.Move{{Block: int(b.ID), From: placement.AddReplica, To: c.to, Bytes: b.Bytes}}}
		var ve *placement.VetoError
		if err := rb.apply(plan, 9, &placement.Plan{}); !errors.As(err, &ve) || ve.Reason != c.reason {
			t.Errorf("move to node %d: err %v, want a VetoError for %v", c.to, err, c.reason)
		}
		if !reflect.DeepEqual(b.Replicas, replicas) {
			t.Errorf("a vetoed plan changed block %d's replicas %v -> %v", b.ID, replicas, b.Replicas)
		}
	}
	if rb.Stats().Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", rb.Stats().Rejected)
	}
}

func TestRebalancerAnnealKeepsReplication(t *testing.T) {
	fs, rb, _ := hotFixture(t, RebalancerConfig{Mode: RebalanceAnneal, AnnealSteps: 1000, AnnealSeed: 7})
	counts := make(map[BlockID]int)
	for _, b := range fs.blocks {
		counts[b.ID] = len(b.Replicas)
	}
	if _, err := rb.Tick(0); err != nil {
		t.Fatal(err)
	}
	// Annealing relocates; it never changes a block's replica count.
	for _, b := range fs.blocks {
		if len(b.Replicas) != counts[b.ID] {
			t.Errorf("block %d replica count %d -> %d", b.ID, counts[b.ID], len(b.Replicas))
		}
		seen := make(map[cluster.NodeID]bool)
		for _, n := range b.Replicas {
			if seen[n] {
				t.Errorf("block %d co-located on node %d", b.ID, n)
			}
			seen[n] = true
		}
	}
	if bad := fs.ReplicationHealth(); len(bad) != 0 {
		t.Errorf("replication violated for blocks %v", bad)
	}
}

func TestRebalancerObserveProfileUnknownFile(t *testing.T) {
	fs := newFS(t, 4, Config{Seed: 1})
	rb := NewRebalancer(fs, RebalancerConfig{Mode: RebalanceHotSpot})
	if err := rb.ObserveProfile("nope", []float64{1}); err == nil {
		t.Error("unknown file accepted")
	}
}

// A mode built without Set fails the tick with the parser's typed error.
func TestRebalancerUnknownModeTyped(t *testing.T) {
	rb := NewRebalancer(newFS(t, 4, Config{Seed: 1}), RebalancerConfig{Mode: "frobnicate"})
	if _, err := rb.Tick(0); !errors.Is(err, ErrRebalanceMode) {
		t.Fatalf("Tick = %v, want ErrRebalanceMode", err)
	}
}

func TestRebalancerDrive(t *testing.T) {
	_, rb, _ := hotFixture(t, RebalancerConfig{Mode: RebalanceOff})
	clock := sim.NewClock()
	if err := rb.Drive(clock, 35); err != nil {
		t.Fatal(err)
	}
	// Ticks at 10, 20, 30 — the horizon is exclusive.
	if got := rb.Stats().Ticks; got != 3 {
		t.Errorf("Ticks = %d, want 3", got)
	}
	if now := clock.Now(); now != 30 {
		t.Errorf("clock ended at %v, want 30", now)
	}
	// A horizon inside the first interval does nothing.
	rb2 := NewRebalancer(newFS(t, 4, Config{Seed: 1}), RebalancerConfig{})
	if err := rb2.Drive(sim.NewClock(), 5); err != nil {
		t.Fatal(err)
	}
	if got := rb2.Stats().Ticks; got != 0 {
		t.Errorf("short-horizon Drive ticked %d times", got)
	}
}
