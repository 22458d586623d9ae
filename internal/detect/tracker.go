package detect

import (
	"fmt"
	"slices"

	"datanet/internal/cluster"
)

// Tracker is the kernel-free sibling of Detector: the same Live→Suspected
// state machine and fixed K-missed-beats timeout, but driven by explicit
// Beat/Sweep calls instead of sim events.
// The metadata cluster uses it in two regimes with one code path — the
// chaos harness advances a logical clock tick by tick, and the serving
// daemon feeds it wall-clock timestamps — so failover behavior proved
// under chaos is the behavior production runs.
//
// Unlike Detector, membership is dynamic: nodes join (Watch) and leave
// (Forget) as the admin plane adds and decommissions them. The zero
// Tracker is not usable; construct with NewTracker.
type Tracker struct {
	cfg Config
	ns  map[int]float64 // last beat of each watched node
	// health holds the belief; the tracker writes only its suspicion bits.
	health *cluster.Health
	// Suspicions counts Live→Suspected transitions (true and false).
	Suspicions int
}

// NewTracker builds an empty tracker. cfg must describe a non-oracle mode;
// the oracle needs no tracker, exactly as it needs no Detector.
func NewTracker(cfg Config) (*Tracker, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == Oracle {
		return nil, fmt.Errorf("%w: oracle mode needs no tracker", ErrBadConfig)
	}
	return &Tracker{cfg: cfg, ns: map[int]float64{}, health: cluster.NewHealth(0)}, nil
}

// Health is the table the tracker writes its belief into.
func (t *Tracker) Health() *cluster.Health { return t.health }

// Watch starts tracking a node, believed live as of now (registration is
// its first implicit beat). Watching an already-watched node is a no-op.
func (t *Tracker) Watch(id int, now float64) {
	if _, ok := t.ns[id]; ok {
		return
	}
	t.ns[id] = now
	t.health.Clear(cluster.NodeID(id))
}

// Forget stops tracking a node (decommission/removal): it is no longer
// believed live.
func (t *Tracker) Forget(id int) {
	delete(t.ns, id)
	t.health.Suspect(cluster.NodeID(id))
}

// Beat records a heartbeat arrival and reports whether it cleared a
// suspicion (the caller's rejoin/false-alarm hook).
func (t *Tracker) Beat(id int, now float64) (cleared bool) {
	if _, ok := t.ns[id]; !ok {
		return false
	}
	t.ns[id] = now
	cleared = t.health.Suspected(cluster.NodeID(id))
	t.health.Clear(cluster.NodeID(id))
	return cleared
}

// Sweep matures timeouts at now and returns the IDs newly suspected since
// the last sweep, in ascending order (determinism: callers react in a
// fixed order regardless of map iteration).
func (t *Tracker) Sweep(now float64) []int {
	var newly []int
	for id, last := range t.ns {
		if nid := cluster.NodeID(id); !t.health.Suspected(nid) && now-last > t.cfg.Timeout {
			t.health.Suspect(nid)
			t.Suspicions++
			newly = append(newly, id)
		}
	}
	slices.Sort(newly)
	return newly
}
