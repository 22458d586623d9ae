package hdfs

import (
	"errors"
	"fmt"

	"datanet/internal/cluster"
	"datanet/internal/placement"
	"datanet/internal/sim"
	"datanet/internal/trace"
)

// The distribution-aware online rebalancer: a name-node maintenance loop
// that closes the paper's open loop. The scheduler works *around*
// sub-dataset skew; the rebalancer uses the same ElasticMap knowledge to
// move the skew itself — hot blocks (high access count × dominant
// sub-dataset concentration) gain replicas on underloaded nodes, and a
// simulated-annealing pass relocates replicas toward a lower-imbalance
// layout. It runs as periodic ticks on the deterministic sim kernel, the
// same pattern the metadata cluster's control plane uses.

// RebalanceMode selects the rebalancer's optimizer.
type RebalanceMode string

// Rebalance modes.
const (
	// RebalanceOff disables the rebalancer (the byte-identical default).
	RebalanceOff RebalanceMode = "off"
	// RebalanceHotSpot adds replicas of hot blocks (dddfs-style).
	RebalanceHotSpot RebalanceMode = "hotspot"
	// RebalanceAnneal relocates replicas by simulated annealing
	// (dcache-distribute-style).
	RebalanceAnneal RebalanceMode = "anneal"
	// RebalanceBoth runs the hot-spot pass, then annealing on the result.
	RebalanceBoth RebalanceMode = "both"
)

// RebalanceModes lists every rebalance mode, in the order the CLI
// documents them.
var RebalanceModes = []RebalanceMode{RebalanceOff, RebalanceHotSpot, RebalanceAnneal, RebalanceBoth}

// ErrRebalanceMode reports an unknown rebalance mode.
var ErrRebalanceMode = errors.New("hdfs: unknown rebalance mode")

// String names the mode as the CLI spells it.
func (m RebalanceMode) String() string { return string(m) }

// Set parses a CLI mode name ("" is an alias of off), making
// *RebalanceMode a flag.Value.
func (m *RebalanceMode) Set(s string) error {
	if s == "" {
		s = string(RebalanceOff)
	}
	for _, v := range RebalanceModes {
		if v.String() == s {
			*m = v
			return nil
		}
	}
	return fmt.Errorf("%w %q (want off|hotspot|anneal|both)", ErrRebalanceMode, s)
}

// The maintenance knobs no caller varies: ticks every 10 simulated
// seconds, and accumulated heat halves after every tick so drifting
// workloads age out.
const (
	rebalanceInterval = 10
	heatDecay         = 0.5
)

// RebalancerConfig shapes the maintenance loop.
type RebalancerConfig struct {
	// Mode selects the optimizer; RebalanceOff when empty.
	Mode RebalanceMode
	// MaxReplicas caps per-block replicas for the hot-spot pass; 0 means
	// the filesystem's replication factor + 1.
	MaxReplicas int
	// MaxMovesPerTick caps hot-spot additions per tick; 0 means 8.
	MaxMovesPerTick int
	// AnnealSteps / AnnealSeed configure the annealer.
	AnnealSteps int
	AnnealSeed  int64
}

func (c RebalancerConfig) withDefaults(replication int) RebalancerConfig {
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = replication + 1
	}
	if c.MaxMovesPerTick <= 0 {
		c.MaxMovesPerTick = 8
	}
	return c
}

// RebalanceStats accumulates what the loop did.
type RebalanceStats struct {
	// Ticks counts Tick invocations; Moves and BytesMoved total the
	// applied plan across all ticks.
	Ticks, Moves int
	BytesMoved   int64
	// Rejected counts plans refused by health validation (typed veto).
	Rejected int
}

// Rebalancer drives placement optimizers against one filesystem. It plans
// over and validates against the name-node's node-health table: a move
// toward a node the name-node believes dead or draining fails the tick
// with a typed error.
type Rebalancer struct {
	fs    *FileSystem
	cfg   RebalancerConfig
	heat  map[BlockID]float64
	stats RebalanceStats
}

// NewRebalancer builds a rebalancer over fs.
func NewRebalancer(fs *FileSystem, cfg RebalancerConfig) *Rebalancer {
	return &Rebalancer{
		fs:   fs,
		cfg:  cfg.withDefaults(fs.cfg.Replication),
		heat: make(map[BlockID]float64),
	}
}

// ObserveAccess records one access of block id at the given sub-dataset
// concentration; heat accumulates count × concentration, the dddfs
// open-count signal scaled by DataNet's distribution knowledge.
func (r *Rebalancer) ObserveAccess(id BlockID, concentration float64) {
	if concentration > 0 {
		r.heat[id] += concentration
	}
}

// ObserveProfile folds a whole-file heat profile (per-block sub-dataset
// concentrations in file block order, e.g. elasticmap.Array.HeatProfile)
// into the accumulator — one call per job that queried the sub-dataset.
func (r *Rebalancer) ObserveProfile(file string, profile []float64) error {
	info, err := r.fs.Stat(file)
	if err != nil {
		return err
	}
	for i, id := range info.Blocks {
		if i >= len(profile) {
			break
		}
		r.ObserveAccess(id, profile[i])
	}
	return nil
}

// Heat returns the accumulated heat of a block (tests and reports).
func (r *Rebalancer) Heat(id BlockID) float64 { return r.heat[id] }

// Stats returns the accumulated counters.
func (r *Rebalancer) Stats() RebalanceStats { return r.stats }

// blockInfos snapshots the filesystem into optimizer input.
func (r *Rebalancer) blockInfos() []placement.BlockInfo {
	out := make([]placement.BlockInfo, len(r.fs.blocks))
	for i, b := range r.fs.blocks {
		out[i] = placement.BlockInfo{
			Block:    int(b.ID),
			Bytes:    b.Bytes,
			Replicas: append([]cluster.NodeID(nil), b.Replicas...),
			Heat:     r.heat[b.ID],
		}
	}
	return out
}

// Tick runs one maintenance pass at simulated time now: plan under the
// configured mode, validate against the health table, apply, trace. The
// returned plan holds the applied moves (empty when the layout is already
// good). A validation failure returns the typed *placement.VetoError and
// applies nothing.
func (r *Rebalancer) Tick(now float64) (placement.Plan, error) {
	r.stats.Ticks++
	var applied placement.Plan
	switch r.cfg.Mode {
	case "", RebalanceOff:
		return applied, nil
	case RebalanceHotSpot, RebalanceAnneal, RebalanceBoth:
	default:
		return applied, fmt.Errorf("%w %q", ErrRebalanceMode, r.cfg.Mode)
	}

	if r.cfg.Mode == RebalanceHotSpot || r.cfg.Mode == RebalanceBoth {
		plan := placement.PlanHotSpots(r.blockInfos(), r.fs.Usage(), r.fs.health, placement.HotSpotConfig{
			MaxReplicas: r.cfg.MaxReplicas,
			MaxMoves:    r.cfg.MaxMovesPerTick,
		})
		if err := r.apply(plan, now, &applied); err != nil {
			return applied, err
		}
	}
	if r.cfg.Mode == RebalanceAnneal || r.cfg.Mode == RebalanceBoth {
		plan := placement.Anneal(r.blockInfos(), r.fs.health, placement.AnnealConfig{
			Seed:  r.cfg.AnnealSeed,
			Steps: r.cfg.AnnealSteps,
		})
		if err := r.apply(plan, now, &applied); err != nil {
			return applied, err
		}
	}

	for id, h := range r.heat {
		h *= heatDecay
		if h < 1e-9 {
			delete(r.heat, id)
			continue
		}
		r.heat[id] = h
	}
	return applied, nil
}

// apply validates and executes one plan, folding it into out.
func (r *Rebalancer) apply(plan placement.Plan, now float64, out *placement.Plan) error {
	if err := plan.Validate(r.fs.health); err != nil {
		r.stats.Rejected++
		return err
	}
	for _, m := range plan.Moves {
		if err := r.fs.ApplyMove(m); err != nil {
			return err
		}
		r.stats.Moves++
		r.stats.BytesMoved += m.Bytes
		out.Moves = append(out.Moves, m)
	}
	out.Policy = plan.Policy
	if r.fs.rec.Enabled() && len(plan.Moves) > 0 {
		ev := trace.At(now, trace.EvRebalance)
		ev.Count = len(plan.Moves)
		ev.Detail = plan.Policy
		r.fs.rec.Record(ev)
	}
	return nil
}

// rebalanceKind is the tick event on the rebalancer's own kernel.
const rebalanceKind sim.Kind = 1

// Drive runs periodic ticks on a fresh sim kernel from the clock's
// current time until horizon (exclusive), the online form of the
// maintenance loop: a tick every rebalanceInterval from t0. A tick error
// (typed veto, unknown mode) aborts the run and surfaces. The clock ends
// at the last delivered tick.
func (r *Rebalancer) Drive(clock *sim.Clock, horizon float64) error {
	k := sim.New(clock)
	k.Handle(rebalanceKind, func(e *sim.Event) error {
		if _, err := r.Tick(e.At); err != nil {
			return err
		}
		if next := e.At + rebalanceInterval; next < horizon {
			k.Post(sim.Event{At: next, Kind: rebalanceKind})
		}
		return nil
	})
	first := k.Now() + rebalanceInterval
	if first >= horizon {
		return nil
	}
	k.Post(sim.Event{At: first, Kind: rebalanceKind})
	return k.Run()
}
