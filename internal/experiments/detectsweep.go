package experiments

import (
	"fmt"

	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
)

// This experiment measures what failure *detection* costs: the oracle
// engine reacts to a crash at the crash instant, but a real master only
// learns of it after missed heartbeats. Sweeping the suspicion timeout
// (K missed beats) shows the trade: short timeouts recover fast but risk
// false suspicions and duplicate work; long timeouts leave crashed nodes'
// tasks undiscovered.

// DetectorSweep runs a fixed two-crash plan under the oracle and a
// heartbeat detector at several timeout multiples, for both the locality
// baseline and DataNet scheduling. A cell's key is
// <scheduler>/<detector arm> ("oracle", "hb K=3"); its slowdown is
// relative to the same scheduler's oracle run on the same crash plan — the
// pure price of not knowing instantly — and its latencies summarize the
// crash→response gaps.
func DetectorSweep(p MovieParams) (*Report, error) {
	if p.Nodes <= 0 {
		p = DefaultFaultParams()
	}
	fix, err := newFaultFixture(p)
	if err != nil {
		return nil, err
	}
	if err := fix.estimate(p.Alpha); err != nil {
		return nil, err
	}

	r := newReport()
	t := metrics.NewTable("Failure detection — makespan vs suspicion timeout (same crash plan)",
		"scheduler", "detector", "timeout", "job time", "vs oracle", "latency mean/max", "false susp", "dup kills", "output")
	var counters metrics.FaultCounters
	for _, s := range faultArms[:2] {
		clean, err := mapreduce.Run(fix.job(s.policy))
		if err != nil {
			return nil, err
		}
		// Two mid-filter crashes, one rejoining later — the same physical
		// plan for every detector arm.
		at := clean.FilterEnd * 0.5
		plan := &faults.Plan{Seed: p.Seed, Crashes: []faults.Crash{
			{Node: cluster.NodeID(2), At: at},
			{Node: cluster.NodeID(5), At: at, RejoinAt: clean.FilterEnd * 1.5},
		}}
		// Beats every 2% of the healthy filter makespan: timeouts of K
		// beats then land between 2% and 16% of the filter phase.
		interval := clean.FilterEnd * 0.02

		// The detector arms are the scheduler's line with the oracle, then
		// with a heartbeat detector at each timeout of K beats.
		arms := []arm{{"oracle", s.policy}}
		for _, k := range []int{1, 2, 3, 5, 8} {
			hb := s.policy
			hb.Detect = detect.Config{Mode: detect.Heartbeat, Interval: interval, Timeout: float64(k) * interval}
			arms = append(arms, arm{fmt.Sprintf("hb K=%d", k), hb})
		}

		var oracleTime float64
		for _, a := range arms {
			cfg := fix.job(a.policy)
			cfg.Faults = plan
			run, err := mapreduce.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("detector sweep %s %s: %w", s.name, a.name, err)
			}
			if a.name == "oracle" {
				oracleTime = run.JobTime
			}
			slowdown := 0.0
			if oracleTime > 0 {
				slowdown = run.JobTime / oracleTime
			}
			var meanLatency, maxLatency float64
			for _, l := range run.DetectionLatency {
				meanLatency += l
				maxLatency = max(maxLatency, l)
			}
			if n := len(run.DetectionLatency); n > 0 {
				meanLatency /= float64(n)
			}
			timeout, latency := "-", "-"
			if d := a.policy.Detect; d.Timeout > 0 {
				timeout = metrics.Seconds(d.Timeout)
			}
			if maxLatency > 0 {
				latency = fmt.Sprintf("%.2f / %.2f s", meanLatency, maxLatency)
			}
			t.Add(s.name, a.name, timeout,
				metrics.Seconds(run.JobTime), fmt.Sprintf("%.2fx", slowdown),
				latency, fmt.Sprint(run.FalseSuspicions), fmt.Sprint(run.DuplicateKills),
				r.outputCell(run.Output, clean.Output))
			key := s.name + "/" + a.name
			r.Values[key] = run.JobTime
			r.Values[key+"/mean_latency"] = meanLatency
			r.Values[key+"/max_latency"] = maxLatency
			observe(&counters, run)
			counters.ObserveDetection(run.FalseSuspicions, run.DuplicateKills, run.DetectionLatency)
		}
	}
	r.table(t)
	r.table(counters.Table("Detection totals across the sweep"))
	r.linef("  (the oracle reacts at the crash instant; heartbeat modes pay K missed beats of latency\n   before re-dispatching)")
	if counters.DetectionLatency != nil {
		r.Values["detection_latencies"] = float64(counters.DetectionLatency.Count())
	}
	return r, nil
}
