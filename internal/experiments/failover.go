package experiments

import (
	"fmt"

	"datanet/internal/cluster"
	"datanet/internal/clusterd"
	"datanet/internal/detect"
	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/records"
)

// This experiment measures what failover of the *metadata service itself*
// costs. The cluster layer replicates each shard's snapshots to K
// followers asynchronously and promotes the freshest one when heartbeats
// declare the primary dead, so three windows open at a crash: detection
// (missed beats), unavailability (the shard has no serving leader) and
// staleness (the promoted follower may trail the acked high-water mark
// until the next append). Sweeping detector aggressiveness on a logical
// clock shows how the suspicion timeout moves those windows.

const (
	failoverNodes  = 5
	failoverShards = 4
	failoverArrays = 6
)

func failoverArrayName(i int) string { return fmt.Sprintf("fo-%02d", i) }

func failoverChunk(i, n int) *elasticmap.Array {
	name := failoverArrayName(i)
	recs := make([]records.Record, n)
	for j := range recs {
		recs[j] = records.Record{Sub: name, Time: int64(j), Rating: 3, Payload: "pp"}
	}
	return elasticmap.Build([][]records.Record{recs}, elasticmap.Options{Alpha: 0.5})
}

// failoverReplicas is the one follower count per shard the sweep runs at.
// It is not an axis: shipping is delay-only (each shipment lands ShipDelay
// after it is cut, with no per-link or per-primary bandwidth), so the
// follower count moves no window.
const failoverReplicas = 2

// FailoverSweep crashes a shard primary mid-traffic under every detector
// arm and reports the detection, unavailability and staleness windows
// under <detector>/…. Entirely on the logical clock — the output is a pure
// function of the configuration.
func FailoverSweep() (*Report, error) {
	arms := []struct {
		name string
		det  detect.Config
	}{
		{"hb K=1", detect.Config{Mode: detect.Heartbeat, Interval: 1, Timeout: 1}},
		{"hb K=3", detect.Config{Mode: detect.Heartbeat, Interval: 1, Timeout: 3}},
	}
	r := newReport()
	t := metrics.NewTable("Metadata failover — windows vs detector aggressiveness (ticks)",
		"detector", "detect", "leader moved", "converged", "refused ops", "stale reads", "promotions", "data")
	r.Values["data_lost"] = 0
	for _, arm := range arms {
		if err := failoverRun(r, t, arm.name, arm.det); err != nil {
			return nil, fmt.Errorf("failover sweep %s: %w", arm.name, err)
		}
	}
	r.table(t)
	r.linef("  (detection closes after the suspicion timeout; the unavailability window is detection plus\n   promotion, and the leader moves on the tick detection closes)")
	return r, nil
}

// failoverRun executes one arm: warm the cluster up, crash the primary of
// shard 0, then drive one append and one read per array per tick until
// the cluster converges again. It adds the arm's row to t and its windows
// to r, in ticks after the crash: detect is crash → first suspicion,
// promote crash → no shard led by the victim, converge crash → fully
// repaired (replica sets refilled and caught up).
func failoverRun(r *Report, t *metrics.Table, mode string, det detect.Config) error {
	c, err := clusterd.New(clusterd.Config{
		Shards: failoverShards, Replicas: failoverReplicas,
		Detect: det, ShipDelay: 1, CacheSize: 16,
	}, failoverNodes)
	if err != nil {
		return err
	}
	for i := 0; i < failoverArrays; i++ {
		if err := c.Load(failoverArrayName(i), failoverChunk(i, 10)); err != nil {
			return err
		}
	}
	now := 0.0
	tick := func() { now++; c.Tick(now) }
	// Warmup ships the bootstrap replicas.
	for i := 0; i < 5; i++ {
		tick()
	}
	if err := c.Converged(); err != nil {
		return fmt.Errorf("not converged after warmup: %w", err)
	}
	victim := cluster.NodeID(c.Topology().Map[0].Primary)
	pre := c.Stats()
	crashAt := now
	if err := c.Crash(victim); err != nil {
		return err
	}
	// unavailableOps counts client appends+reads refused with a typed
	// routing error during the failover window, staleReads the reads served
	// below the acked mark (flagged).
	var unavailableOps, staleReads int
	detected, promoted, converged := -1.0, -1.0, -1.0
	for i := 0; i < 60 && converged < 0; i++ {
		tick()
		// The append+read storm runs through the failover window; once a
		// new leader serves every shard the clients go quiet so the
		// convergence clock measures repair (refill + re-ship), not the
		// traffic itself.
		if promoted < 0 {
			for a := 0; a < failoverArrays; a++ {
				name := failoverArrayName(a)
				if _, err := c.Append(name, failoverChunk(a, 1)); err != nil {
					if !clusterd.IsFailoverRefusal(err) {
						return fmt.Errorf("append %s: %w", name, err)
					}
					unavailableOps++
				}
				_, stale, err := c.Read(name)
				switch {
				case err == nil && stale:
					staleReads++
				case err != nil && clusterd.IsFailoverRefusal(err):
					unavailableOps++
				case err != nil:
					return fmt.Errorf("read %s: %w", name, err)
				}
			}
		}
		st := c.Stats()
		if detected < 0 && st.Suspicions > pre.Suspicions {
			detected = now - crashAt
		}
		if promoted < 0 {
			moved := true
			for _, sv := range c.Topology().Map {
				if sv.Primary == int(victim) {
					moved = false
				}
			}
			if moved {
				promoted = now - crashAt
			}
		}
		if promoted >= 0 && c.Converged() == nil {
			converged = now - crashAt
		}
	}
	if detected < 0 || promoted < 0 || converged < 0 {
		return fmt.Errorf("windows never closed: detect=%g promote=%g converge=%g (%v)",
			detected, promoted, converged, c.Converged())
	}
	promotions := c.Stats().Promotions - pre.Promotions
	// Every array must still be queryable after convergence.
	data := "intact"
	for i := 0; i < failoverArrays; i++ {
		name := failoverArrayName(i)
		sn, _, err := c.Read(name)
		if err != nil {
			data = "LOST"
			continue
		}
		if total, _, _ := sn.Arr.EstimateDetailed(name); total <= 0 {
			data = "LOST"
		}
	}
	if data == "LOST" {
		r.Values["data_lost"]++
	}
	t.Add(mode,
		fmt.Sprintf("%.0f", detected), fmt.Sprintf("%.0f", promoted), fmt.Sprintf("%.0f", converged),
		fmt.Sprint(unavailableOps), fmt.Sprint(staleReads), fmt.Sprint(promotions), data)
	r.Values[mode+"/detect_ticks"] = detected
	r.Values[mode+"/promote_ticks"] = promoted
	r.Values[mode+"/converge_ticks"] = converged
	r.Values[mode+"/promotions"] = float64(promotions)
	return nil
}
