package experiments

import (
	"fmt"
	"strings"

	"datanet/internal/apps"
	"datanet/internal/cluster"
	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/sched"
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

// ---------------------------------------------------------------------------

// ClusterSweepRow is one cluster size's outcome.
type ClusterSweepRow struct {
	Nodes           int
	BaselineMaxAvg  float64
	DataNetMaxAvg   float64
	TopKImprovement float64
}

// ClusterSweepResult sweeps the cluster size at a fixed dataset.
type ClusterSweepResult struct {
	Rows []ClusterSweepRow
}

// ClusterSweep measures imbalance vs cluster size (fixed 256-block movie
// dataset, sizes default to 8..128).
func ClusterSweep(sizes []int, p MovieParams) (*ClusterSweepResult, error) {
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128}
	}
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	res := &ClusterSweepResult{}
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	for _, m := range sizes {
		q := p
		q.Nodes = m
		env, err := NewMovieEnv(q)
		if err != nil {
			return nil, err
		}
		base, err := env.RunBaseline(app)
		if err != nil {
			return nil, err
		}
		dn, err := env.RunDataNet(app)
		if err != nil {
			return nil, err
		}
		row := ClusterSweepRow{Nodes: m}
		row.BaselineMaxAvg = stats.Summarize(NodeSeries(env.Topo, base.NodeWorkload)).ImbalanceRatio()
		row.DataNetMaxAvg = stats.Summarize(NodeSeries(env.Topo, dn.NodeWorkload)).ImbalanceRatio()
		if base.AnalysisTime > 0 {
			row.TopKImprovement = (base.AnalysisTime - dn.AnalysisTime) / base.AnalysisTime
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the sweep.
func (r *ClusterSweepResult) String() string {
	t := metrics.NewTable("Extension — imbalance vs cluster size (empirical Figure 2)",
		"nodes", "baseline max/avg", "datanet max/avg", "TopK improvement")
	for _, row := range r.Rows {
		t.Add(fmt.Sprint(row.Nodes), fmt.Sprintf("%.2f", row.BaselineMaxAvg),
			fmt.Sprintf("%.2f", row.DataNetMaxAvg), metrics.Pct(row.TopKImprovement))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (larger clusters → worse baseline imbalance, as §II-B predicts; DataNet stays near 1)\n")
	return sb.String()
}

// ---------------------------------------------------------------------------

// HeterogeneityResult compares uniform-target Algorithm 1 with the
// capacity-aware variant on a cluster where a quarter of the nodes run at
// 40% speed.
type HeterogeneityResult struct {
	Nodes         int
	SlowNodes     int
	UniformTime   float64
	CapacityTime  float64
	UniformStall  float64 // slowest node's analysis time, uniform targets
	CapacityStall float64
	CapacityGain  float64
}

// Heterogeneity runs the comparison.
func Heterogeneity(p MovieParams) (*HeterogeneityResult, error) {
	if p.Nodes == 0 {
		p = DefaultMovieParams()
	}
	// Build a heterogeneous topology: every 4th node at 40% CPU.
	scale := float64(p.BlockBytes) / float64(hdfs.DefaultBlockSize)
	specs := make([]cluster.Node, p.Nodes)
	slow := 0
	for i := range specs {
		cpu := cluster.DefaultCPURate * scale
		if i%4 == 0 {
			cpu *= 0.4
			slow++
		}
		specs[i] = cluster.Node{
			Rack:     i % p.Racks,
			CPURate:  cpu,
			DiskRate: cluster.DefaultDiskRate * scale,
			NetRate:  cluster.DefaultNetRate * scale,
			Slots:    cluster.DefaultSlots,
		}
	}
	topo, err := cluster.NewHeterogeneous(specs, p.Racks)
	if err != nil {
		return nil, err
	}
	fs, err := hdfs.NewFileSystem(topo, hdfs.Config{BlockSize: p.BlockBytes, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	recs := movieLog(p)
	if _, err := fs.Write("data", recs); err != nil {
		return nil, err
	}
	perBlock, err := fs.BlockRecords("data")
	if err != nil {
		return nil, err
	}
	arr := elasticmap.Build(perBlock, elasticmap.Options{
		Alpha:        p.Alpha,
		BucketBounds: elasticmap.ScaledFibonacciBounds(p.BlockBytes),
	})
	target := gen.MovieID(0)
	weights := arr.Weights(target)

	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	run := func(f sched.Factory) (*mapreduce.Result, error) {
		return mapreduce.Run(mapreduce.Config{
			FS: fs, File: "data", TargetSub: target,
			App: app, Picker: f, Weights: weights,
		})
	}
	uni, err := run(sched.NewDataNetPicker)
	if err != nil {
		return nil, err
	}
	cap, err := run(sched.NewCapacityAwarePicker)
	if err != nil {
		return nil, err
	}
	res := &HeterogeneityResult{
		Nodes: p.Nodes, SlowNodes: slow,
		UniformTime:  uni.AnalysisTime,
		CapacityTime: cap.AnalysisTime,
	}
	res.UniformStall = stats.Summarize(NodeSeries(topo, uni.NodeCompute)).Max
	res.CapacityStall = stats.Summarize(NodeSeries(topo, cap.NodeCompute)).Max
	if res.UniformTime > 0 {
		res.CapacityGain = (res.UniformTime - res.CapacityTime) / res.UniformTime
	}
	return res, nil
}

// String renders the heterogeneity comparison.
func (r *HeterogeneityResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — heterogeneous cluster (%d nodes, %d at 40%% CPU)\n", r.Nodes, r.SlowNodes)
	t := metrics.NewTable("", "variant", "analysis time", "slowest node")
	t.Add("Algorithm 1, uniform W̄", metrics.Seconds(r.UniformTime), metrics.Seconds(r.UniformStall))
	t.Add("Algorithm 1, capacity-aware", metrics.Seconds(r.CapacityTime), metrics.Seconds(r.CapacityStall))
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "  capacity-aware gain: %s (the §IV-B \"computing capability\" refinement)\n", metrics.Pct(r.CapacityGain))
	return sb.String()
}

// ---------------------------------------------------------------------------

// ReactiveResult is the four-way §V-A.4 comparison on one environment.
type ReactiveResult struct {
	Env  *Env
	Rows []ReactiveRow
}

// ReactiveRow is one strategy's outcome.
type ReactiveRow struct {
	Strategy     string
	AnalysisTime float64
	MaxOverAvg   float64
	Migrated     int64
	Speculative  int
}

// Reactive compares: locality baseline, baseline + SkewTune-style
// migration, baseline + speculative execution, and DataNet.
func Reactive(env *Env) (*ReactiveResult, error) {
	app := apps.NewTopKSearch(10, "plot twist ending amazing director")
	res := &ReactiveResult{Env: env}
	add := func(name string, cfg mapreduce.Config) error {
		run, err := mapreduce.Run(cfg)
		if err != nil {
			return err
		}
		loads := stats.Summarize(NodeSeries(env.Topo, run.NodeWorkload))
		res.Rows = append(res.Rows, ReactiveRow{
			Strategy:     name,
			AnalysisTime: run.AnalysisTime,
			MaxOverAvg:   loads.ImbalanceRatio(),
			Migrated:     run.MigratedBytes,
			Speculative:  run.SpeculativeWins,
		})
		return nil
	}
	base := mapreduce.Config{
		FS: env.FS, File: env.File, TargetSub: env.Target,
		App: app, Picker: sched.NewLocalityPicker,
	}
	if err := add("locality baseline", base); err != nil {
		return nil, err
	}
	mig := base
	mig.RebalanceAfterFilter = true
	if err := add("baseline + migration (SkewTune-style)", mig); err != nil {
		return nil, err
	}
	spec := base
	spec.Speculative = true
	if err := add("baseline + speculative execution", spec); err != nil {
		return nil, err
	}
	dn := base
	dn.Picker = sched.NewDataNetPicker
	dn.Weights = env.EstimatedWeights(env.Target)
	if err := add("DataNet (Algorithm 1)", dn); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the comparison.
func (r *ReactiveResult) String() string {
	t := metrics.NewTable(fmt.Sprintf("Extension — proactive vs reactive (%s)", r.Env.describe()),
		"strategy", "analysis time", "workload max/avg", "migrated", "backups")
	for _, row := range r.Rows {
		t.Add(row.Strategy, metrics.Seconds(row.AnalysisTime), fmt.Sprintf("%.2f", row.MaxOverAvg),
			metrics.Bytes(row.Migrated), fmt.Sprint(row.Speculative))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (reactive schemes pay migration/backup costs at runtime; DataNet schedules the imbalance away)\n")
	return sb.String()
}

// ---------------------------------------------------------------------------

// IOSavingRow reports block skipping for one target popularity rank.
type IOSavingRow struct {
	Rank          int
	TargetBytes   int64
	SkippedBlocks int
	TotalBlocks   int
	ScanSaved     float64 // fraction of raw bytes never read
}

// IOSavingResult is the §V-B skipping benefit across popularity ranks.
type IOSavingResult struct {
	Env  *Env
	Rows []IOSavingRow
}

// IOSaving measures how many blocks ElasticMap lets jobs skip as the
// target sub-dataset shrinks ("we don't need to process blocks that don't
// contain our target data").
func IOSaving(env *Env, ranks []int) (*IOSavingResult, error) {
	if len(ranks) == 0 {
		ranks = []int{0, 5, 20, 100, 500}
	}
	app := apps.WordCount{}
	res := &IOSavingResult{Env: env}
	blocks, err := env.FS.Blocks(env.File)
	if err != nil {
		return nil, err
	}
	var rawTotal int64
	for _, b := range blocks {
		rawTotal += b.Bytes
	}
	for _, rank := range ranks {
		sub := gen.MovieID(rank)
		weights := env.EstimatedWeights(sub)
		run, err := mapreduce.Run(mapreduce.Config{
			FS: env.FS, File: env.File, TargetSub: sub,
			App: app, Picker: sched.NewDataNetPicker,
			Weights: weights, SkipEmpty: true,
		})
		if err != nil {
			return nil, err
		}
		var skippedBytes int64
		for i, w := range weights {
			if w == 0 && i < len(blocks) {
				skippedBytes += blocks[i].Bytes
			}
		}
		res.Rows = append(res.Rows, IOSavingRow{
			Rank:          rank,
			TargetBytes:   env.Truth[sub],
			SkippedBlocks: run.SkippedBlocks,
			TotalBlocks:   len(blocks),
			ScanSaved:     float64(skippedBytes) / float64(rawTotal),
		})
	}
	return res, nil
}

// String renders the I/O-saving table.
func (r *IOSavingResult) String() string {
	t := metrics.NewTable("Extension — §V-B I/O saving via ElasticMap block skipping",
		"movie rank", "sub-dataset size", "blocks skipped", "raw bytes never read")
	for _, row := range r.Rows {
		t.Add(fmt.Sprint(row.Rank), metrics.Bytes(row.TargetBytes),
			fmt.Sprintf("%d/%d", row.SkippedBlocks, row.TotalBlocks), metrics.Pct(row.ScanSaved))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("  (savings track the target's temporal footprint: short-lived or rare sub-datasets leave most blocks provably empty)\n")
	return sb.String()
}
