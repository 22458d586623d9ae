package experiments

import (
	"fmt"

	"datanet/internal/apps"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/stats"
)

// This file holds the extension experiments that go beyond the paper's
// figures while staying on its claims:
//
//   - ClusterSweep: the empirical counterpart of Figure 2 — how baseline
//     imbalance and DataNet's gain scale with the cluster size (§II-B:
//     "how they are affected by the size of a cluster");
//   - Heterogeneity: the §IV-B capacity-aware variant on a cluster with
//     slow nodes;
//   - Reactive: the three-way comparison baseline vs SkewTune-style
//     post-hoc migration vs speculative execution vs DataNet (§V-A.4);
//   - IOSaving: the §V-B block-skipping benefit across target popularity.

// ClusterSweep measures imbalance vs cluster size (fixed 256-block movie
// dataset, sizes default to 8..128).
func ClusterSweep(sizes []int, p MovieParams) (*Report, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128}
	}
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	r := newReport()
	t := metrics.NewTable("Extension — imbalance vs cluster size (empirical Figure 2)",
		"nodes", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, m := range sizes {
		q := p
		q.Nodes = m
		env, err := NewMovieEnv(q)
		if err != nil {
			return nil, err
		}
		c, err := env.compare(movieTopK())
		if err != nil {
			return nil, err
		}
		without, with, gain := r.balanceCells(fmt.Sprint(m), env, c)
		t.Add(fmt.Sprint(m), without, with, gain)
	}
	r.table(t)
	r.linef("  (larger clusters → worse baseline imbalance, as §II-B predicts; DataNet stays near 1)")
	return r, nil
}

// Heterogeneity compares uniform-target Algorithm 1 with the
// capacity-aware variant on a cluster where a quarter of the nodes (every
// 4th) run at 40% CPU.
func Heterogeneity(p MovieParams) (*Report, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	specs := hdfs.ScaledNodes(p.Nodes, p.Racks, p.BlockBytes)
	slow := 0
	for i := 0; i < len(specs); i += 4 {
		specs[i].CPURate *= 0.4
		slow++
	}
	env, err := buildEnvOn(movieLog(p), specs, p.Racks, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed}, p.Alpha, gen.MovieID(0))
	if err != nil {
		return nil, err
	}

	r := newReport()
	r.linef("Extension — heterogeneous cluster (%d nodes, %d at 40%% CPU)", p.Nodes, slow)
	r.Values["slow_nodes"] = float64(slow)
	t := metrics.NewTable("", "variant", "analysis time", "slowest node")
	var times [2]float64
	variants := [...]string{"Algorithm 1, uniform W̄", "Algorithm 1, capacity-aware"}
	for i, a := range []arm{{"uniform", dataNet}, {"capacity", policy("-sched capacity")}} {
		run, err := env.run(movieTopK(), a.policy)
		if err != nil {
			return nil, err
		}
		// The slowest node's analysis time is where slow nodes stall the job.
		stall := stats.Summarize(NodeSeries(env.Topo, run.NodeCompute)).Max
		t.Add(variants[i], metrics.Seconds(run.AnalysisTime), metrics.Seconds(stall))
		r.Values[a.name] = run.AnalysisTime
		r.Values[a.name+"/slowest_node"] = stall
		times[i] = run.AnalysisTime
	}
	r.table(t)
	gain := 0.0
	if times[0] > 0 {
		gain = (times[0] - times[1]) / times[0]
	}
	r.linef("  capacity-aware gain: %s (the §IV-B \"computing capability\" refinement)", metrics.Pct(gain))
	return r, nil
}

// Reactive is the four-way §V-A.4 comparison on one environment: locality
// baseline, baseline + SkewTune-style migration, baseline + speculative
// execution, and DataNet.
func Reactive(env *Env) (*Report, error) {
	// Migration and speculation are reactive switches no policy line
	// spells: they ride on the locality arm.
	base := env.job(movieTopK(), locality)
	mig := base
	mig.RebalanceAfterFilter = true
	spec := base
	spec.Speculative = true

	r := newReport()
	t := metrics.NewTable(fmt.Sprintf("Extension — proactive vs reactive (%s)", env.describe()),
		"strategy", "analysis time", "workload max/avg", "migrated", "backups")
	for _, s := range []struct {
		name string
		cfg  mapreduce.Config
	}{
		{"locality baseline", base},
		{"baseline + migration (SkewTune-style)", mig},
		{"baseline + speculative execution", spec},
		{"DataNet (Algorithm 1)", env.job(movieTopK(), dataNet)},
	} {
		run, err := mapreduce.Run(s.cfg)
		if err != nil {
			return nil, err
		}
		imbalance := env.maxOverAvg(run)
		t.Add(s.name, metrics.Seconds(run.AnalysisTime), fmt.Sprintf("%.2f", imbalance),
			metrics.Bytes(run.MigratedBytes), fmt.Sprint(run.SpeculativeWins))
		r.Values[s.name] = run.AnalysisTime
		r.Values[s.name+"/max_over_avg"] = imbalance
		r.Values[s.name+"/migrated"] = float64(run.MigratedBytes)
	}
	r.table(t)
	r.linef("  (reactive schemes pay migration/backup costs at runtime; DataNet schedules the imbalance away)")
	return r, nil
}

// IOSaving measures the §V-B skipping benefit across popularity ranks: how
// many blocks ElasticMap lets jobs skip as the target sub-dataset shrinks
// ("we don't need to process blocks that don't contain our target data").
func IOSaving(env *Env, ranks []int) (*Report, error) {
	if len(ranks) == 0 {
		ranks = []int{0, 5, 20, 100, 500}
	}
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		return nil, err
	}
	var rawTotal int64
	for _, b := range blocks {
		rawTotal += b.Bytes
	}
	r := newReport()
	t := metrics.NewTable("Extension — §V-B I/O saving via ElasticMap block skipping",
		"movie rank", "sub-dataset size", "blocks skipped", "raw bytes never read")
	for _, rank := range ranks {
		sub := gen.MovieID(rank)
		weights := env.Array.Weights(sub)
		cfg := job(env.FS, env.File, sub, apps.WordCount{}, dataNet, weights)
		cfg.SkipEmpty = true
		run, err := mapreduce.Run(cfg)
		if err != nil {
			return nil, err
		}
		var skippedBytes int64
		for i, w := range weights {
			if w == 0 && i < len(blocks) {
				skippedBytes += blocks[i].Bytes
			}
		}
		saved := float64(skippedBytes) / float64(rawTotal)
		t.Add(fmt.Sprint(rank), metrics.Bytes(env.Truth[sub]),
			fmt.Sprintf("%d/%d", run.SkippedBlocks, len(blocks)), metrics.Pct(saved))
		r.Values[fmt.Sprintf("%d/skipped_blocks", rank)] = float64(run.SkippedBlocks)
		r.Values[fmt.Sprintf("%d/scan_saved", rank)] = saved
	}
	r.Values["blocks"] = float64(len(blocks))
	r.table(t)
	r.linef("  (savings track the target's temporal footprint: short-lived or rare sub-datasets leave most blocks provably empty)")
	return r, nil
}
