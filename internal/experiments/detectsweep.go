package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"datanet/internal/cluster"
	"datanet/internal/detect"
	"datanet/internal/faults"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/sched"
)

// This experiment measures what failure *detection* costs: the oracle
// engine reacts to a crash at the crash instant, but a real master only
// learns of it after missed heartbeats. Sweeping the suspicion timeout
// (K missed beats) shows the trade the φ-accrual literature formalizes —
// short timeouts recover fast but risk false suspicions and duplicate
// work; long timeouts leave crashed nodes' tasks undiscovered.

// DetectRow is one (scheduler, detector configuration) outcome.
type DetectRow struct {
	Scheduler string
	// Mode names the detector arm ("oracle", "hb K=3", "phi").
	Mode string
	// Timeout is the configured suspicion timeout (0 for oracle/phi).
	Timeout float64
	JobTime float64
	// Slowdown is JobTime relative to the same scheduler's oracle run on
	// the same crash plan — the pure price of not knowing instantly.
	Slowdown float64
	// MeanLatency and MaxLatency summarize the crash→response gaps.
	MeanLatency, MaxLatency float64
	FalseSuspicions         int
	DuplicateKills          int
	// OutputOK reports the run still produced the fault-free answer.
	OutputOK bool
}

// DetectSweepResult is the detector-latency sweep.
type DetectSweepResult struct {
	Rows     []DetectRow
	Counters metrics.FaultCounters
}

// DetectorSweep runs a fixed two-crash plan under the oracle, a heartbeat
// detector at several timeout multiples, and the φ-accrual detector, for
// both the locality baseline and DataNet scheduling.
func DetectorSweep(p MovieParams) (*DetectSweepResult, error) {
	if p.Nodes <= 0 {
		p = DefaultFaultParams()
	}
	recs := movieLog(p)
	target := gen.MovieID(0)
	fix, err := newFaultFixture(recs, p)
	if err != nil {
		return nil, err
	}

	env, err := buildEnv(recs, p.Nodes, p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed}, p.Alpha, target)
	if err != nil {
		return nil, err
	}
	weights := env.EstimatedWeights(target)

	schedulers := []struct {
		name  string
		tweak func(*mapreduce.Config)
	}{
		{"hadoop-locality", func(c *mapreduce.Config) {}},
		{"datanet", func(c *mapreduce.Config) {
			c.Picker = sched.NewDataNetPicker
			c.Weights = weights
		}},
	}

	res := &DetectSweepResult{}
	for _, s := range schedulers {
		cfg := fix.config()
		s.tweak(&cfg)
		clean, err := mapreduce.Run(cfg)
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

		type arm struct {
			mode string
			det  detect.Config
		}
		arms := []arm{{"oracle", detect.Config{}}}
		for _, k := range []int{1, 2, 3, 5, 8} {
			arms = append(arms, arm{
				fmt.Sprintf("hb K=%d", k),
				detect.Config{Mode: detect.Heartbeat, Interval: interval, Timeout: float64(k) * interval},
			})
		}
		arms = append(arms, arm{"phi", detect.Config{Mode: detect.Phi, Interval: interval}})

		var oracleTime float64
		for _, a := range arms {
			cfg := fix.config()
			s.tweak(&cfg)
			cfg.Faults = plan
			cfg.Detect = a.det
			r, err := mapreduce.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("detector sweep %s %s: %w", s.name, a.mode, err)
			}
			if a.mode == "oracle" {
				oracleTime = r.JobTime
			}
			row := DetectRow{
				Scheduler:       s.name,
				Mode:            a.mode,
				Timeout:         a.det.Timeout,
				JobTime:         r.JobTime,
				FalseSuspicions: r.FalseSuspicions,
				DuplicateKills:  r.DuplicateKills,
				OutputOK:        reflect.DeepEqual(r.Output, clean.Output),
			}
			if oracleTime > 0 {
				row.Slowdown = r.JobTime / oracleTime
			}
			if n := len(r.DetectionLatency); n > 0 {
				var sum float64
				for _, l := range r.DetectionLatency {
					sum += l
					if l > row.MaxLatency {
						row.MaxLatency = l
					}
				}
				row.MeanLatency = sum / float64(n)
			}
			res.Rows = append(res.Rows, row)
			res.Counters.Observe(r.NodeCrashes, r.TasksRetried, r.TransientErrors,
				r.LostOutputs, r.ReplicasRepaired, r.SpeculativeWins, r.MetadataFallback)
			res.Counters.ObserveDetection(r.FalseSuspicions, r.DuplicateKills, r.DetectionLatency)
		}
	}
	return res, nil
}

// String renders the sweep.
func (r *DetectSweepResult) String() string {
	t := metrics.NewTable("Failure detection — makespan vs suspicion timeout (same crash plan)",
		"scheduler", "detector", "timeout", "job time", "vs oracle", "latency mean/max", "false susp", "dup kills", "output")
	for _, row := range r.Rows {
		ok := "ok"
		if !row.OutputOK {
			ok = "DIVERGED"
		}
		timeout := "-"
		if row.Timeout > 0 {
			timeout = metrics.Seconds(row.Timeout)
		}
		lat := "-"
		if row.MaxLatency > 0 {
			lat = fmt.Sprintf("%.2f / %.2f s", row.MeanLatency, row.MaxLatency)
		}
		t.Add(row.Scheduler, row.Mode, timeout,
			metrics.Seconds(row.JobTime), fmt.Sprintf("%.2fx", row.Slowdown),
			lat, fmt.Sprint(row.FalseSuspicions), fmt.Sprint(row.DuplicateKills), ok)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString(r.Counters.Table("Detection totals across the sweep").String())
	sb.WriteString("  (the oracle reacts at the crash instant; heartbeat modes pay K missed beats of latency\n   before re-dispatching, and φ-accrual adapts its timeout to observed beat jitter)\n")
	return sb.String()
}
