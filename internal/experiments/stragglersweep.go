package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"datanet/internal/cluster"
	"datanet/internal/faults"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// The straggler sweep measures what straggler *mitigation* buys under
// heterogeneity: a few nodes run at a fraction of full speed (the classic
// degraded-disk profile), which stretches the filter phase's completion
// tail from a wall of near-identical task times into a long tail whose
// maximum is the makespan. The sweep compares doing nothing against the
// two mitigations of internal/straggle — quantile-triggered speculation
// at several trigger quantiles, and coded k-of-n execution at rate 0.70
// (rate 0.85 was measured through PR 22 and retired: it loses to the
// unmitigated run at 1 024 nodes under the oracle) — across fault plans, failure detectors and cluster
// scales, and reports both the gain (makespan, completion-tail quantiles)
// and the bill (backup launches, wasted task-seconds, decode work).

// stragglerArms are the mitigation arms, over the fixture's locality
// scheduler.
var stragglerArms = []arm{
	{"none", locality},
	{"spec-q0.75", policy("-sched locality -mitigate speculative:0.75")},
	{"spec-q0.90", policy("-sched locality -mitigate speculative:0.9")},
	{"spec-q0.95", policy("-sched locality -mitigate speculative:0.95")},
	{"coded-r0.70", policy("-sched locality -mitigate coded:0.7")},
}

// stragglerPlans builds the fault plans for one scale: a pure-slowdown
// heterogeneity profile (~2% of nodes badly degraded), and the same
// profile with a mid-filter crash-and-rejoin on top. Slow victims are
// spread across the cluster; the crash victim is never a slowed node.
func stragglerPlans(nodes int, filterEnd float64, seed int64) []struct {
	name string
	plan *faults.Plan
} {
	nSlow := nodes / 64
	if nSlow < 2 {
		nSlow = 2
	}
	stride := nodes / nSlow
	var slow []faults.Slowdown
	for i := 0; i < nSlow; i++ {
		factor := 0.05
		if i%2 == 1 {
			factor = 0.15
		}
		slow = append(slow, faults.Slowdown{
			Node: cluster.NodeID((3 + i*stride) % nodes),
			CPU:  factor, Disk: factor,
		})
	}
	slow2 := append([]faults.Slowdown(nil), slow...)
	return []struct {
		name string
		plan *faults.Plan
	}{
		{"slow-heavy", &faults.Plan{Seed: seed, Slow: slow}},
		{"slow+crash", &faults.Plan{Seed: seed, Slow: slow2, Crashes: []faults.Crash{
			{Node: 1, At: filterEnd * 0.4, RejoinAt: filterEnd * 1.2},
		}}},
	}
}

// taskEndQuantiles summarizes the completion-time CDF of surviving filter
// outputs at the 50th/90th/99th percentiles (nearest-rank).
func taskEndQuantiles(res *mapreduce.Result) (p50, p90, p99 float64) {
	var ends []float64
	for _, st := range res.Tasks {
		if !st.Lost {
			ends = append(ends, st.End)
		}
	}
	sort.Float64s(ends)
	return stats.NearestRank(ends, 0.50), stats.NearestRank(ends, 0.90), stats.NearestRank(ends, 0.99)
}

// StragglerSweep runs the mitigation grid at each cluster scale (default
// 128 and 1024 nodes, the paper testbed's size and 8× it). A cell's key is
// <nodes>/<plan>/<detector>/<arm>: alone its end-to-end makespan, with
// /filter_end the filter phase's, /p50 /p90 /p99 the filter-task
// completion-time CDF, /launches and /wasted the speculation arm's bill
// and /decodes the coded arm's reconstruction work. The bare counters total
// the mitigation bill over the sweep (the suite gates require wins, waste
// and decodes, and no divergence from the fault-free reference output).
func StragglerSweep(scales []int, p MovieParams) (*Report, error) {
	if len(scales) == 0 {
		scales = []int{128, 1024}
	}
	if p.Nodes == 0 {
		p = DefaultFaultParams()
	}
	r := newReport()
	t := metrics.NewTable("Extension — straggler mitigation under heterogeneity (filter-tail CDF + wasted work)",
		"nodes", "plan", "detector", "arm", "filter", "job time", "p50/p90/p99", "backups", "wins", "wasted", "decodes", "output")
	for _, nodes := range scales {
		q := p
		q.Nodes = nodes
		if q.Racks < nodes/32 {
			q.Racks = nodes / 32
		}
		// One block per node on average (×3 replicas keeps every node busy)
		// so the completion tail is one task wave, not queueing noise.
		q.Blocks = nodes
		fix, err := newFaultFixture(q)
		if err != nil {
			return nil, err
		}
		healthy, err := mapreduce.Run(fix.job(locality))
		if err != nil {
			return nil, fmt.Errorf("straggler sweep healthy %d nodes: %w", nodes, err)
		}
		// Beats every 2% of the healthy filter makespan.
		hb := policy("-sched locality -detect heartbeat")
		hb.Detect.Interval = healthy.FilterEnd * 0.02
		// The scale's cells run on every core, each on its own clone of
		// the fixture; their rows and counters are added in cell order
		// (float sums depend on order), so the report is the same at any
		// worker count.
		type cell struct {
			plan, detector, arm, key string
		}
		var cells []cell
		var cfgs []mapreduce.Config
		for _, pl := range stragglerPlans(nodes, healthy.FilterEnd, q.Seed) {
			for _, d := range []arm{{"oracle", locality}, {"heartbeat", hb}} {
				for _, mit := range stragglerArms {
					cells = append(cells, cell{pl.name, d.name, mit.name, fmt.Sprintf("%d/%s/%s/%s", nodes, pl.name, d.name, mit.name)})
					b := mit.policy
					b.Detect = d.policy.Detect
					cfg := fix.job(b)
					cfg.Faults = pl.plan
					cfgs = append(cfgs, cfg)
				}
			}
		}
		runs, errs := runAll(cfgs)
		for i, c := range cells {
			run, key := runs[i], c.key
			if errs[i] != nil {
				return nil, fmt.Errorf("straggler sweep %s: %w", key, errs[i])
			}
			p50, p90, p99 := taskEndQuantiles(run)
			t.Add(fmt.Sprint(nodes), c.plan, c.detector, c.arm,
				metrics.Seconds(run.FilterEnd), metrics.Seconds(run.JobTime),
				fmt.Sprintf("%.1f/%.1f/%.1f s", p50, p90, p99),
				fmt.Sprint(run.SpeculativeLaunches), fmt.Sprint(run.SpeculativeWins),
				metrics.Seconds(run.WastedTaskSeconds), fmt.Sprint(run.CodedDecodes),
				r.outputCell(run.Output, healthy.Output))
			r.Values[key] = run.JobTime
			r.Values[key+"/filter_end"] = run.FilterEnd
			r.Values[key+"/p50"] = p50
			r.Values[key+"/p90"] = p90
			r.Values[key+"/p99"] = p99
			r.Values[key+"/launches"] = float64(run.SpeculativeLaunches)
			r.Values[key+"/wasted"] = run.WastedTaskSeconds
			r.Values[key+"/decodes"] = float64(run.CodedDecodes)
			r.Values["speculative_launches"] += float64(run.SpeculativeLaunches)
			r.Values["speculative_wins"] += float64(run.SpeculativeWins)
			r.Values["wasted_task_seconds"] += run.WastedTaskSeconds
			r.Values["coded_decode_count"] += float64(run.CodedDecodes)
		}
	}
	r.table(t)
	r.linef("  (speculation trims the tail for the cost of duplicate task-seconds; coding caps the tail\n   at the k-th completion per group for a fixed parity surcharge, decoding the stragglers' outputs)")
	return r, nil
}

// runAll runs every job on GOMAXPROCS goroutines and returns the results
// and errors in cfgs' order. Each job runs on its own event queue and
// clock, so a result does not depend on what runs beside it.
func runAll(cfgs []mapreduce.Config) ([]*mapreduce.Result, []error) {
	runs, errs := make([]*mapreduce.Result, len(cfgs)), make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(cfgs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(cfgs)); i = next.Add(1) - 1 {
				runs[i], errs[i] = mapreduce.Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return runs, errs
}
