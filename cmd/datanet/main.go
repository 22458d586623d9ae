// Command datanet drives the library end to end on a dataset file produced
// by cmd/datagen: it lays the records out on a simulated HDFS cluster,
// builds ElasticMap meta-data (optionally persisting it), answers
// sub-dataset distribution queries, and runs analysis jobs under either
// scheduler.
//
// Subcommands:
//
//	datanet build   -data reviews.dnr -meta reviews.em [-alpha 0.3] [-block 256KiB] [-nodes 32]
//	datanet query   -data reviews.dnr -sub movie-00000 [-meta reviews.em]
//	datanet analyze -data reviews.dnr -sub movie-00000 -app wordcount [-sched datanet]
//	datanet top     -data reviews.dnr [-n 10]
//	datanet chaos   [-runs 1000] [-seed 1] [-shrink]
//	datanet chaos   -cluster 4 -replicas 2 [-runs 200] [-seed 1] [-detect heartbeat]
//	datanet serve   -meta reviews=reviews.em [-addr 127.0.0.1:8080] [-cache 1024]
//	datanet serve   -meta reviews=reviews.em -cluster 3 -replicas 2 [-shards 4]
//	datanet loadgen -addr 127.0.0.1:8080 [-clients 8] [-requests 1000] [-seed 1]
//
// Every flag binds into the value the command runs with and is parsed by
// that value's own Set, so wrong input is a usage error (exit status 2).
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"datanet"
	"datanet/internal/elasticmap"
	"datanet/internal/mapreduce"
	"datanet/internal/metrics"
	"datanet/internal/records"
	"datanet/internal/stats"
	"datanet/internal/trace"
)

// stdout is swapped by tests to capture the commands' output.
var stdout io.Writer = os.Stdout

// commands maps each subcommand to its runner.
var commands = map[string]func(args []string) error{
	"build": runBuild, "query": runQuery, "analyze": runAnalyze, "top": runTop,
	"verify": runVerify, "chaos": runChaos, "serve": runServe, "loadgen": runLoadgen,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		usage()
	}
	if err := commands[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintln(os.Stderr, "datanet:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datanet <build|query|analyze|top|verify|chaos|serve|loadgen> [flags]
  build   -data FILE -meta OUT [-alpha A] [-block BYTES] [-nodes N]
  query   -data FILE -sub KEY [-meta FILE]
  analyze -data FILE -sub KEY [-app NAME [-join-sub KEY]] [-sched locality|datanet|capacity|maxflow|lpt] [-skip]
          [-meta FILE] [-crash N@T[:REJOIN],...] [-slow NxF,...] [-readerr P] [-retries N]
          [-detect oracle|heartbeat] [-hb-interval S] [-hb-timeout S]
          [-mitigate off|speculative[:Q]|coded[:RATE]]  (straggler mitigation)
          [-partition off|hash|skew|range]  (key-aware reduce partitioning)
          [-out jsonl|chrome|json=FILE ...]  (FILE - is stdout and replaces the text report)
  top     -data FILE [-n N] | -meta FILE [-n N]
  verify  -data FILE -meta FILE [-samples N]
  chaos   [-runs N] [-seed S] [-shrink]  (every seed draws its detector, mitigation
          and partitioner; all engine invariants armed)
          [-cluster N [-replicas K] [-shards S] [-detect heartbeat|oracle]]
          (sharded-cluster invariants)
  serve   -meta NAME=FILE [-meta NAME=FILE ...] [-addr HOST:PORT] [-cache N]
          [-cluster N [-replicas K] [-shards S]]  (sharded, replicated serving)
          [-log-level off|debug|info|warn|error] [-pprof]
          (Prometheus /metrics per node, cluster rollup + span dumps under /admin)
  loadgen [-addr HOST:PORT] [-array NAME] [-clients N] [-requests N] [-seed S]
          [-profile cpu=FILE|heap=FILE]
          (shard-routes and retries typed 503s automatically against a cluster)`)
	os.Exit(2)
}

// common holds the flags every dataset subcommand shares and, once made,
// the filesystem and meta-data the command runs on.
type common struct {
	fs           *flag.FlagSet
	data         string
	metaPath     string
	block, seed  int64
	nodes, racks int
	alpha        float64
	loaded       []records.Record
	hfs          *datanet.FileSystem
	built        *datanet.Meta
}

func newCommon(name string) *common {
	c := &common{fs: flag.NewFlagSet(name, flag.ExitOnError), alpha: 0.3}
	c.fs.StringVar(&c.data, "data", "", "dataset file from cmd/datagen")
	c.fs.Int64Var(&c.block, "block", 256<<10, "HDFS block size in bytes")
	c.fs.IntVar(&c.nodes, "nodes", 32, "cluster size")
	c.fs.IntVar(&c.racks, "racks", 4, "rack count")
	c.fs.Int64Var(&c.seed, "seed", 1, "placement seed")
	return c
}

// alphaFlag registers -alpha, for the commands that can build meta-data.
func (c *common) alphaFlag() {
	c.fs.Float64Var(&c.alpha, "alpha", 0.3, "hash-map share α when the meta-data is built")
}

// load reads the dataset and lays it out on the simulated cluster, once.
func (c *common) load() (*datanet.FileSystem, error) {
	if c.hfs != nil {
		return c.hfs, nil
	}
	if c.data == "" {
		return nil, fmt.Errorf("-data is required")
	}
	f, err := os.Open(c.data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := records.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	topo := datanet.NewScaledCluster(c.nodes, c.racks, c.block)
	hfs, err := datanet.NewFileSystem(topo, datanet.FSConfig{BlockSize: c.block, Seed: c.seed})
	if err != nil {
		return nil, err
	}
	if _, err := hfs.Write("data", recs); err != nil {
		return nil, err
	}
	c.loaded, c.hfs = recs, hfs
	return hfs, nil
}

// meta returns the run's ElasticMap array, made once: decoded from -meta
// when given, else built over the dataset at -alpha.
func (c *common) meta() (_ *datanet.Meta, err error) {
	switch {
	case c.built != nil:
	case c.metaPath != "":
		var blob []byte
		if blob, err = os.ReadFile(c.metaPath); err == nil {
			c.built, err = datanet.DecodeMeta(blob, "data")
		}
	default:
		var hfs *datanet.FileSystem
		if hfs, err = c.load(); err == nil {
			c.built, err = datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: c.alpha})
		}
	}
	return c.built, err
}

func runBuild(args []string) error {
	c := newCommon("build")
	out := c.fs.String("meta", "", "output path for the encoded ElasticMap array")
	c.alphaFlag()
	c.fs.Parse(args)
	meta, err := c.meta()
	if err != nil {
		return err
	}
	info, _ := c.hfs.Stat("data")
	fmt.Fprintf(stdout, "dataset: %d records, %d blocks\n", info.Records, len(info.Blocks))
	fmt.Fprintf(stdout, "meta-data: %d bytes (raw/meta ratio %.0f, realized α %.1f%%)\n",
		meta.MemoryBytes(), meta.Array().RepresentationRatio(), meta.Array().MeanAlpha()*100)
	if *out != "" {
		blob, err := meta.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "encoded meta-data written to %s (%d bytes)\n", *out, len(blob))
	}
	return nil
}

func runQuery(args []string) error {
	c := newCommon("query")
	sub := c.fs.String("sub", "", "sub-dataset key")
	c.fs.StringVar(&c.metaPath, "meta", "", "reuse an encoded ElasticMap array")
	c.alphaFlag()
	c.fs.Parse(args)
	if *sub == "" {
		return fmt.Errorf("-sub is required")
	}
	hfs, err := c.load()
	if err != nil {
		return err
	}
	meta, err := c.meta()
	if err != nil {
		return err
	}
	est := meta.Estimate(*sub)
	truthDist, err := hfs.SubDistribution("data", *sub)
	if err != nil {
		return err
	}
	var truth int64
	for _, b := range truthDist {
		truth += b
	}
	fmt.Fprintf(stdout, "sub-dataset %q\n", *sub)
	fmt.Fprintf(stdout, "  estimated size: %d bytes (truth %d, %+.1f%%)\n",
		est, truth, pctDiff(est, truth))
	weights := meta.Weights(*sub)
	nonzero := 0
	for _, w := range weights {
		if w > 0 {
			nonzero++
		}
	}
	fmt.Fprintf(stdout, "  present in %d of %d blocks per meta-data\n", nonzero, len(weights))
	fmt.Fprintf(stdout, "  per-block distribution (bytes): %s\n", sparkline(weights))
	return nil
}

// analyzeFlags is the analyze flag set, bound into the values the job runs
// with; split out so tests can golden the help text without the
// ExitOnError parse path terminating the process.
type analyzeFlags struct {
	*common
	job     datanet.Job
	app     datanet.AppName
	joinSub string
	plan    datanet.FaultPlan
	policy  mapreduce.Bundle
	outs    trace.Outputs
}

func newAnalyzeFlags() *analyzeFlags {
	f := &analyzeFlags{common: newCommon("analyze")}
	f.job = datanet.Job{File: "data"}
	fs := f.fs
	f.policy.Flags(fs)
	fs.StringVar(&f.job.Target, "sub", "", "sub-dataset key")
	fs.Var(&f.app, "app", "wordcount (default) | histogram | movingavg | topk | sort | join")
	fs.StringVar(&f.joinSub, "join-sub", "", "build-side sub-dataset key for -app join (its windows come from the meta-data distribution)")
	fs.BoolVar(&f.job.SkipEmpty, "skip", false, "skip blocks proven empty of the target")
	fs.BoolVar(&f.job.Execute, "exec", false, "execute the application and print the top output pairs")
	f.alphaFlag()
	fs.StringVar(&f.metaPath, "meta", "", "reuse an encoded ElasticMap array (corrupt file degrades to locality)")
	fs.Var(&f.plan.Crashes, "crash", "inject crashes: N@T[:REJOIN],... (node N dies at T s, optionally rejoins)")
	fs.Var(&f.plan.Slow, "slow", "degrade nodes: NxF,... (node N runs at factor F of full speed)")
	fs.Float64Var(&f.plan.Read.Prob, "readerr", 0, "transient block-read failure probability per attempt")
	fs.IntVar(&f.job.Retry.MaxAttempts, "retries", 0, "max attempts per task under faults (0 = default 4)")
	fs.Int64Var(&f.plan.Seed, "faultseed", 1, "seed for deterministic transient errors and partition sampling")
	fs.Var(&f.outs, "out", "KIND=FILE: write jsonl or chrome (the event timeline; chrome loads in Perfetto) or json (result + metrics) to FILE; - is stdout and replaces the text report (repeatable)")
	return f
}

func runAnalyze(args []string) error {
	f := newAnalyzeFlags()
	f.fs.Parse(args)
	if err := f.policy.Validate(); err != nil {
		usageError(f.fs, "%v", err)
	}
	job := &f.job
	if job.Target == "" {
		return fmt.Errorf("-sub is required")
	}
	job.Scheduler, job.Detect, job.Mitigate = f.policy.Sched, f.policy.Detect, &f.policy.Mitigate
	job.Partition = &datanet.PartitionConfig{Mode: f.policy.Partition, Seed: f.plan.Seed}
	hfs, err := f.load()
	if err != nil {
		return err
	}
	job.FS = hfs
	if job.Scheduler != datanet.SchedulerLocality {
		// Lenient load: a corrupt ElasticMap file demotes the job to the
		// locality baseline instead of aborting the analysis; a join then
		// builds its meta-data afresh.
		job.Meta, err = f.meta()
		if errors.Is(err, elasticmap.ErrCodec) {
			fmt.Fprintf(os.Stderr, "datanet: warning: %v — falling back to locality scheduling\n", err)
			job.MetaErr, f.metaPath = err, ""
		} else if err != nil {
			return err
		}
	}
	if job.App, err = f.app.New(hfs, "data", f.joinSub, f.meta); err != nil {
		return err
	}
	if !f.plan.Empty() {
		job.Faults = &f.plan
	}
	if len(f.outs) > 0 {
		job.Trace = datanet.NewTrace()
	}
	res, err := job.Run()
	if err != nil {
		return err
	}
	doc := analyzeDoc{
		App: job.App.Name(), Target: job.Target, Scheduler: res.SchedulerName,
		Result: res, Metrics: job.Trace.Snapshot(),
	}
	writers := map[trace.OutputKind]func(io.Writer) error{
		trace.OutJSONL: job.Trace.WriteJSONL, trace.OutChrome: job.Trace.WriteChromeTrace, trace.OutJSON: doc.write,
	}
	for _, o := range f.outs {
		if err := writeTo(o.Path, writers[o.Kind]); err != nil {
			return err
		}
	}
	if !f.outs.Stdout() {
		f.report(res)
	}
	return nil
}

// analyzeDoc is the -out json=FILE schema of the analyze subcommand.
type analyzeDoc struct {
	App       string                   `json:"app"`
	Target    string                   `json:"target"`
	Scheduler string                   `json:"scheduler"`
	Result    *datanet.Result          `json:"result"`
	Metrics   *datanet.MetricsSnapshot `json:"metrics"`
}

func (d analyzeDoc) write(w io.Writer) error {
	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}

// writeTo runs write on the file at path, or on stdout for "-".
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report prints the analyze text report.
func (f *analyzeFlags) report(res *datanet.Result) {
	w := stdout
	fmt.Fprintf(w, "%s on %q with %s scheduling\n", f.job.App.Name(), f.job.Target, res.SchedulerName)
	fmt.Fprintf(w, "  filter phase:   %8.2f s (%d local, %d remote, %d skipped)\n",
		res.FilterEnd, res.LocalTasks, res.RemoteTasks, res.SkippedBlocks)
	fmt.Fprintf(w, "  analysis job:   %8.2f s\n", res.AnalysisTime)
	fmt.Fprintf(w, "  total makespan: %8.2f s\n", res.JobTime)
	if res.NodeCrashes > 0 || res.TasksRetried > 0 || res.TransientErrors > 0 {
		fmt.Fprintf(w, "  fault handling: %d node crashes, %d tasks retried, %d transient read errors, %d outputs lost, %d replicas repaired\n",
			res.NodeCrashes, res.TasksRetried, res.TransientErrors, res.LostOutputs, res.ReplicasRepaired)
	}
	if lat := res.DetectionLatency; len(lat) > 0 || res.FalseSuspicions > 0 || res.DuplicateKills > 0 {
		s := stats.Summarize(lat)
		fmt.Fprintf(w, "  failure detection: %d responses (mean %.2f s, max %.2f s), %d false suspicions, %d duplicate kills\n",
			s.N, s.Mean, s.Max, res.FalseSuspicions, res.DuplicateKills)
	}
	switch mit := f.policy.Mitigate; mit.Mode {
	case datanet.MitigateSpeculative:
		fmt.Fprintf(w, "  speculation: %d backups launched (quantile %.2f), %d won, %s of duplicate work\n",
			res.SpeculativeLaunches, mit.Quantile, res.SpeculativeWins, metrics.Seconds(res.WastedTaskSeconds))
	case datanet.MitigateCoded:
		fmt.Fprintf(w, "  coded execution: %d groups + %d parity tasks (rate %.2f), %d decodes rebuilt %s\n",
			res.CodedGroups, res.CodedParityUnits, mit.Rate, res.CodedDecodes, metrics.Bytes(res.CodedDecodedBytes))
	}
	if res.PartitionName != "" {
		var maxLoad, total int64
		for _, l := range res.PartitionLoads {
			total += l
			if l > maxLoad {
				maxLoad = l
			}
		}
		mean := int64(0)
		if n := len(res.PartitionLoads); n > 0 {
			mean = total / int64(n)
		}
		fmt.Fprintf(w, "  partitioning: %s over %d reducers (%d split keys, max/mean load %s/%s)\n",
			res.PartitionName, len(res.PartitionLoads), res.PartitionSplitKeys,
			metrics.Bytes(maxLoad), metrics.Bytes(mean))
	}
	if res.MetadataFallback {
		fmt.Fprintf(w, "  metadata fallback: degraded to %s\n", res.SchedulerName)
	}
	// Node order, not map order — the sparkline must be seed-stable.
	nodes := make([]datanet.NodeID, 0, len(res.NodeWorkload))
	for id := range res.NodeWorkload {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	var loads []int64
	for _, id := range nodes {
		loads = append(loads, res.NodeWorkload[id])
	}
	fmt.Fprintf(w, "  per-node workload: %s\n", sparkline(loads))
	for _, o := range f.outs {
		fmt.Fprintf(w, "  out: %s written to %s (%d trace events)\n", o.Kind, o.Path, f.job.Trace.Len())
	}
	if f.job.Execute {
		printTopOutput(res.Output, 10)
	}
}

func runTop(args []string) error {
	c := newCommon("top")
	n := c.fs.Uint("n", 10, "how many sub-datasets to list")
	c.fs.StringVar(&c.metaPath, "meta", "", "answer from an encoded ElasticMap array instead of scanning the raw data")
	c.fs.Parse(args)
	if c.metaPath != "" {
		// Meta-only path: no raw-data scan at all — the point of keeping
		// the meta-data around.
		meta, err := c.meta()
		if err != nil {
			return err
		}
		idx := meta.Array().Index()
		top := idx.Top(int(min(*n, uint(idx.DominantSubs()))))
		fmt.Fprintf(stdout, "%d dominant sub-datasets in the meta-data; top %d by recorded volume (no raw scan):\n",
			idx.DominantSubs(), len(top))
		for _, e := range top {
			fmt.Fprintf(stdout, "  %-32s %12d bytes\n", e.Sub, e.Bytes)
		}
		return nil
	}
	if _, err := c.load(); err != nil {
		return err
	}
	totals := records.BySub(c.loaded)
	subs := bySize(totals)
	k := int(min(*n, uint(len(subs))))
	fmt.Fprintf(stdout, "%d sub-datasets; top %d by volume:\n", len(subs), k)
	for _, sub := range subs[:k] {
		fmt.Fprintf(stdout, "  %-32s %12d bytes\n", sub, totals[sub])
	}
	return nil
}

// bySize lists the sub-datasets of totals, largest first, ties by name.
func bySize(totals map[string]int64) []string {
	subs := make([]string, 0, len(totals))
	for sub := range totals {
		subs = append(subs, sub)
	}
	slices.SortFunc(subs, func(a, b string) int {
		return cmp.Or(cmp.Compare(totals[b], totals[a]), strings.Compare(a, b))
	})
	return subs
}

// runVerify cross-checks persisted meta-data against the raw dataset:
// block counts, overall accuracy χ, and per-sub-dataset spot checks.
func runVerify(args []string) error {
	c := newCommon("verify")
	c.fs.StringVar(&c.metaPath, "meta", "", "encoded ElasticMap array to verify")
	samples := c.fs.Uint("samples", 10, "how many sub-datasets to spot-check")
	c.fs.Parse(args)
	if c.metaPath == "" {
		return fmt.Errorf("-meta is required")
	}
	hfs, err := c.load()
	if err != nil {
		return err
	}
	meta, err := c.meta()
	if err != nil {
		return err
	}
	info, err := hfs.Stat("data")
	if err != nil {
		return err
	}
	arr := meta.Array()
	fmt.Fprintf(stdout, "meta-data: %d blocks; dataset: %d blocks\n", arr.Len(), len(info.Blocks))
	if arr.Len() != len(info.Blocks) {
		return fmt.Errorf("block count mismatch — the meta-data was built for a different layout (block size or dataset)")
	}
	truth := records.BySub(c.loaded)
	subs := bySize(truth)
	chi := arr.OverallAccuracy(subs)
	fmt.Fprintf(stdout, "overall accuracy χ: %.1f%%\n", chi*100)

	// Spot-check the largest sub-datasets: dominant entries must be exact.
	n := int(min(*samples, uint(len(subs))))
	worst := 0.0
	for _, sub := range subs[:n] {
		est := meta.Estimate(sub)
		rel := float64(est-truth[sub]) / float64(truth[sub])
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
		fmt.Fprintf(stdout, "  %-32s truth %10d  estimate %10d  (%+.2f%%)\n",
			sub, truth[sub], est, pctDiff(est, truth[sub]))
	}
	if chi < 0.5 {
		return fmt.Errorf("verification failed: χ %.1f%% — meta-data does not describe this dataset", chi*100)
	}
	fmt.Fprintf(stdout, "verified: worst top-%d relative error %.2f%%\n", n, worst*100)
	return nil
}

func printTopOutput(out map[string]string, n int) {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if n > len(keys) {
		n = len(keys)
	}
	fmt.Fprintf(stdout, "  output (%d keys, first %d):\n", len(keys), n)
	for _, k := range keys[:n] {
		v := out[k]
		if len(v) > 60 {
			v = v[:60] + "…"
		}
		fmt.Fprintf(stdout, "    %-20s %s\n", k, v)
	}
}

// sparkline draws a series of byte counts at most 60 cells wide.
func sparkline(xs []int64) string {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = float64(x)
	}
	return metrics.Sparkline(ys, 60)
}

func pctDiff(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a-b) / float64(b) * 100
}
