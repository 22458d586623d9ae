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
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"datanet"
	"datanet/internal/chaos"
	"datanet/internal/elasticmap"
	"datanet/internal/metrics"
	"datanet/internal/records"
)

// stdout is swapped by tests to capture machine-readable output.
var stdout io.Writer = os.Stdout

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "build":
		err = runBuild(args)
	case "query":
		err = runQuery(args)
	case "analyze":
		err = runAnalyze(args)
	case "top":
		err = runTop(args)
	case "verify":
		err = runVerify(args)
	case "chaos":
		err = runChaos(args)
	case "serve":
		err = runServe(args)
	case "loadgen":
		err = runLoadgen(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "datanet:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: datanet <build|query|analyze|top|verify|chaos|serve|loadgen> [flags]
  build   -data FILE -meta OUT [-alpha A] [-block BYTES] [-nodes N]
  query   -data FILE -sub KEY [-meta FILE]
  analyze -data FILE -sub KEY -app NAME [-join-sub KEY] [-sched locality|datanet|capacity|maxflow|lpt] [-skip]
          [-meta FILE] [-crash N@T[:REJOIN],...] [-slow NxF,...] [-readerr P] [-retries N]
          [-detect oracle|heartbeat|phi] [-hb-interval S] [-hb-timeout S]
          [-speculate [-spec-quantile Q]] [-coded RATE]  (straggler mitigation)
          [-partition off|hash|skew|range]  (key-aware reduce partitioning)
          [-rebalance off|hotspot|anneal|both [-rebalance-ticks N]]
          [-trace OUT [-trace-format jsonl|chrome]] [-json]
  top     -data FILE [-n N] | -meta FILE [-n N]
  verify  -data FILE -meta FILE [-samples N]
  chaos   [-runs N] [-seed S] [-shrink]  (every seed draws its detector, rebalancer,
          mitigation and partitioner; all engine invariants armed)
          [-cluster N [-replicas K] [-shards S] [-detect heartbeat|phi|oracle]]
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

// commonFlags registers the flags every subcommand shares and returns a
// loader that materializes the cluster + filesystem.
type common struct {
	fs     *flag.FlagSet
	data   *string
	block  *int64
	nodes  *int
	racks  *int
	seed   *int64
	loaded []records.Record
}

func newCommon(name string) *common {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &common{
		fs:    fs,
		data:  fs.String("data", "", "dataset file from cmd/datagen"),
		block: fs.Int64("block", 256<<10, "HDFS block size in bytes"),
		nodes: fs.Int("nodes", 32, "cluster size"),
		racks: fs.Int("racks", 4, "rack count"),
		seed:  fs.Int64("seed", 1, "placement seed"),
	}
}

func (c *common) load() (*datanet.FileSystem, error) {
	if *c.data == "" {
		return nil, fmt.Errorf("-data is required")
	}
	f, err := os.Open(*c.data)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := records.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	c.loaded = recs
	topo := datanet.NewScaledCluster(*c.nodes, *c.racks, *c.block)
	hfs, err := datanet.NewFileSystem(topo, datanet.FSConfig{BlockSize: *c.block, Seed: *c.seed})
	if err != nil {
		return nil, err
	}
	if _, err := hfs.Write("data", recs); err != nil {
		return nil, err
	}
	return hfs, nil
}

func runBuild(args []string) error {
	c := newCommon("build")
	metaOut := c.fs.String("meta", "", "output path for the encoded ElasticMap array")
	alpha := c.fs.Float64("alpha", 0.3, "hash-map share α")
	c.fs.Parse(args)
	hfs, err := c.load()
	if err != nil {
		return err
	}
	meta, err := datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: *alpha})
	if err != nil {
		return err
	}
	info, _ := hfs.Stat("data")
	fmt.Printf("dataset: %d records, %d blocks\n", info.Records, len(info.Blocks))
	fmt.Printf("meta-data: %d bytes (raw/meta ratio %.0f, realized α %.1f%%)\n",
		meta.MemoryBytes(), meta.Array().RepresentationRatio(), meta.Array().MeanAlpha()*100)
	if *metaOut != "" {
		blob, err := meta.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metaOut, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("encoded meta-data written to %s (%d bytes)\n", *metaOut, len(blob))
	}
	return nil
}

func runQuery(args []string) error {
	c := newCommon("query")
	sub := c.fs.String("sub", "", "sub-dataset key")
	metaIn := c.fs.String("meta", "", "reuse an encoded ElasticMap array")
	alpha := c.fs.Float64("alpha", 0.3, "hash-map share α when building fresh")
	c.fs.Parse(args)
	if *sub == "" {
		return fmt.Errorf("-sub is required")
	}
	hfs, err := c.load()
	if err != nil {
		return err
	}
	var meta *datanet.Meta
	if *metaIn != "" {
		blob, err := os.ReadFile(*metaIn)
		if err != nil {
			return err
		}
		if meta, err = datanet.DecodeMeta(blob, "data"); err != nil {
			return err
		}
	} else if meta, err = datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: *alpha}); err != nil {
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
	fmt.Printf("sub-dataset %q\n", *sub)
	fmt.Printf("  estimated size: %d bytes (truth %d, %+.1f%%)\n",
		est, truth, pctDiff(est, truth))
	weights := meta.Weights(*sub)
	nonzero := 0
	for _, w := range weights {
		if w > 0 {
			nonzero++
		}
	}
	fmt.Printf("  present in %d of %d blocks per meta-data\n", nonzero, len(weights))
	fmt.Printf("  per-block distribution (bytes): %s\n", sparkline(weights))
	return nil
}

func runAnalyze(args []string) error {
	c := newCommon("analyze")
	// The policy flags bind straight into the values the job runs with; a
	// name no policy knows is a usage error (exit status 2).
	job := datanet.Job{File: "data", Scheduler: datanet.SchedulerDataNet}
	part := datanet.PartitionConfig{Mode: datanet.PartitionOff}
	rbCfg := datanet.RebalancerConfig{Mode: datanet.RebalanceOff}
	sub := c.fs.String("sub", "", "sub-dataset key")
	appName := c.fs.String("app", "wordcount", "wordcount | histogram | movingavg | topk | sort | join")
	joinSub := c.fs.String("join-sub", "", "build-side sub-dataset key for -app join (its windows come from the meta-data distribution)")
	c.fs.Var(&job.Scheduler, "sched", "locality | datanet | capacity | maxflow | lpt")
	c.fs.BoolVar(&job.SkipEmpty, "skip", false, "skip blocks proven empty of the target")
	c.fs.BoolVar(&job.Execute, "exec", false, "execute the application and print the top output pairs")
	alpha := c.fs.Float64("alpha", 0.3, "hash-map share α")
	metaIn := c.fs.String("meta", "", "reuse an encoded ElasticMap array (corrupt file degrades to locality)")
	crashSpec := c.fs.String("crash", "", "inject crashes: N@T[:REJOIN],... (node N dies at T s, optionally rejoins)")
	slowSpec := c.fs.String("slow", "", "degrade nodes: NxF,... (node N runs at factor F of full speed)")
	readErr := c.fs.Float64("readerr", 0, "transient block-read failure probability per attempt")
	c.fs.IntVar(&job.Retry.MaxAttempts, "retries", 0, "max attempts per task under faults (0 = default 4)")
	faultSeed := c.fs.Int64("faultseed", 1, "seed for deterministic transient errors")
	c.fs.Var(&job.Detect.Mode, "detect", "failure detector: oracle (default) | heartbeat | phi")
	c.fs.Float64Var(&job.Detect.Interval, "hb-interval", 0, "heartbeat interval in simulated seconds (0 = default 0.5)")
	c.fs.Float64Var(&job.Detect.Timeout, "hb-timeout", 0, "suspicion timeout in simulated seconds (0 = 3 × interval)")
	speculate := c.fs.Bool("speculate", false, "launch budgeted backup attempts for tasks projected past the completion quantile")
	specQuantile := c.fs.Float64("spec-quantile", 0.9, "speculation trigger quantile in (0,1), used with -speculate")
	coded := c.fs.Float64("coded", 0, "coded k-of-n execution at this rate k/n in (0,1) (0 = off; e.g. 0.7)")
	c.fs.Var(&part.Mode, "partition", "key-aware reduce partitioning: off | hash | skew | range")
	c.fs.Var(&rbCfg.Mode, "rebalance", "distribution-aware replica rebalancing before the run: off | hotspot | anneal | both")
	rebalanceTicks := c.fs.Int("rebalance-ticks", 2, "maintenance ticks to run when -rebalance is enabled")
	traceOut := c.fs.String("trace", "", "write the run's event timeline to this file")
	traceFormat := c.fs.String("trace-format", "jsonl", "timeline format: jsonl | chrome (Perfetto / chrome://tracing)")
	jsonOut := c.fs.Bool("json", false, "emit a machine-readable JSON document (result + metrics) instead of text")
	c.fs.Parse(args)
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		return fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat)
	}
	if *sub == "" {
		return fmt.Errorf("-sub is required")
	}
	hfs, err := c.load()
	if err != nil {
		return err
	}
	var app datanet.App
	switch *appName {
	case "wordcount":
		app = datanet.WordCount()
	case "histogram":
		app = datanet.WordHistogram()
	case "movingavg":
		app = datanet.MovingAverage(86400)
	case "topk":
		app = datanet.TopKSearch(10, "plot twist ending amazing director")
	case "sort":
		app = datanet.DistributedSort()
	case "join":
		// Resolved below: the build side needs the meta-data distribution.
		if *joinSub == "" {
			return fmt.Errorf("-app join requires -join-sub")
		}
	default:
		return fmt.Errorf("unknown app %q", *appName)
	}
	var meta *datanet.Meta
	if job.Scheduler != datanet.SchedulerLocality {
		if *metaIn != "" {
			// Lenient load: a corrupt ElasticMap file demotes the job to
			// the locality baseline instead of aborting the analysis.
			blob, err := os.ReadFile(*metaIn)
			if err != nil {
				return err
			}
			if meta, err = datanet.DecodeMeta(blob, "data"); err != nil {
				if !errors.Is(err, elasticmap.ErrCodec) {
					return err
				}
				fmt.Fprintf(os.Stderr, "datanet: warning: %v — falling back to locality scheduling\n", err)
				meta, job.MetaErr = nil, err
			}
		} else if meta, err = datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: *alpha}); err != nil {
			return err
		}
	}
	if *appName == "join" {
		// The build side comes from the second sub-dataset's ElasticMap
		// distribution — the meta-data prunes the build scan.
		if meta == nil {
			if meta, err = datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: *alpha}); err != nil {
				return err
			}
		}
		build, err := datanet.BuildJoinSide(hfs, "data", meta, *joinSub, 86400)
		if err != nil {
			return err
		}
		app = datanet.SubDatasetJoin(*joinSub, 86400, build)
	}
	plan, err := parseFaultPlan(*crashSpec, *slowSpec, *readErr, *faultSeed)
	if err != nil {
		return err
	}
	var rebalanceStats datanet.RebalanceStats
	if rbCfg.Mode != datanet.RebalanceOff {
		// Pre-run maintenance: let the distribution-aware rebalancer move
		// replicas toward the queried sub-dataset's heat before the job is
		// scheduled. The heat profile needs meta-data, which the locality
		// scheduler otherwise skips building.
		if meta == nil {
			if meta, err = datanet.BuildMeta(hfs, "data", datanet.MetaOptions{Alpha: *alpha}); err != nil {
				return err
			}
		}
		rbCfg.AnnealSeed = *faultSeed
		rb := datanet.NewRebalancer(hfs, rbCfg)
		if err := rb.ObserveProfile("data", meta.HeatProfile(*sub)); err != nil {
			return err
		}
		for i := 0; i < *rebalanceTicks; i++ {
			if _, err := rb.Tick(float64(i)); err != nil {
				return err
			}
		}
		rebalanceStats = rb.Stats()
	}
	var mit *datanet.MitigationConfig
	switch {
	case !(*coded >= 0): // NaN fails this too
		return fmt.Errorf("-coded %v: want a rate k/n in (0,1), or 0 for off", *coded)
	case *speculate && *coded > 0:
		return fmt.Errorf("-speculate and -coded are mutually exclusive")
	case *speculate:
		mit = &datanet.MitigationConfig{Mode: datanet.MitigateSpeculative, Quantile: *specQuantile}
	case *coded > 0:
		mit = &datanet.MitigationConfig{Mode: datanet.MitigateCoded, Rate: *coded}
	}
	if part.Enabled() {
		part.Seed = *faultSeed
		job.Partition = &part
	}
	var rec *datanet.Trace
	if *traceOut != "" || *jsonOut {
		rec = datanet.NewTrace()
	}
	job.FS, job.Target, job.App, job.Meta = hfs, *sub, app, meta
	job.Faults, job.Mitigate, job.Trace = plan, mit, rec
	res, err := job.Run()
	if err != nil {
		return err
	}
	if *traceOut != "" {
		if err := writeTrace(rec, *traceOut, *traceFormat); err != nil {
			return err
		}
	}
	if *jsonOut {
		doc := analyzeDoc{
			App: app.Name(), Target: *sub, Scheduler: res.SchedulerName,
			Result: res, Metrics: rec.Snapshot(),
		}
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		enc = append(enc, '\n')
		_, err = stdout.Write(enc)
		return err
	}
	fmt.Printf("%s on %q with %s scheduling\n", app.Name(), *sub, res.SchedulerName)
	fmt.Printf("  filter phase:   %8.2f s (%d local, %d remote, %d skipped)\n",
		res.FilterEnd, res.LocalTasks, res.RemoteTasks, res.SkippedBlocks)
	fmt.Printf("  analysis job:   %8.2f s\n", res.AnalysisTime)
	if rbCfg.Mode != datanet.RebalanceOff {
		fmt.Printf("  rebalance:      %d moves, %s shipped in %d ticks (%s)\n",
			rebalanceStats.Moves, metrics.Bytes(rebalanceStats.BytesMoved), rebalanceStats.Ticks, rbCfg.Mode)
	}
	fmt.Printf("  total makespan: %8.2f s\n", res.JobTime)
	if res.NodeCrashes > 0 || res.TasksRetried > 0 || res.TransientErrors > 0 {
		fmt.Printf("  fault handling: %d node crashes, %d tasks retried, %d transient read errors, %d outputs lost, %d replicas repaired\n",
			res.NodeCrashes, res.TasksRetried, res.TransientErrors, res.LostOutputs, res.ReplicasRepaired)
	}
	if len(res.DetectionLatency) > 0 || res.FalseSuspicions > 0 || res.DuplicateKills > 0 {
		var sum, max float64
		for _, l := range res.DetectionLatency {
			sum += l
			if l > max {
				max = l
			}
		}
		mean := 0.0
		if len(res.DetectionLatency) > 0 {
			mean = sum / float64(len(res.DetectionLatency))
		}
		fmt.Printf("  failure detection: %d responses (mean %.2f s, max %.2f s), %d false suspicions, %d duplicate kills\n",
			len(res.DetectionLatency), mean, max, res.FalseSuspicions, res.DuplicateKills)
	}
	if mit != nil && mit.Mode == datanet.MitigateSpeculative {
		fmt.Printf("  speculation: %d backups launched (quantile %.2f), %d won, %s of duplicate work\n",
			res.SpeculativeLaunches, *specQuantile, res.SpeculativeWins, metrics.Seconds(res.WastedTaskSeconds))
	}
	if mit != nil && mit.Mode == datanet.MitigateCoded {
		fmt.Printf("  coded execution: %d groups + %d parity tasks (rate %.2f), %d decodes rebuilt %s\n",
			res.CodedGroups, res.CodedParityUnits, *coded, res.CodedDecodes, metrics.Bytes(res.CodedDecodedBytes))
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
		fmt.Printf("  partitioning: %s over %d reducers (%d split keys, max/mean load %s/%s)\n",
			res.PartitionName, len(res.PartitionLoads), res.PartitionSplitKeys,
			metrics.Bytes(maxLoad), metrics.Bytes(mean))
	}
	if res.MetadataFallback {
		fmt.Printf("  metadata fallback: degraded to %s\n", res.SchedulerName)
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
	fmt.Printf("  per-node workload: %s\n", sparkline(loads))
	if *traceOut != "" {
		fmt.Printf("  trace: %d events written to %s (%s)\n", rec.Len(), *traceOut, *traceFormat)
	}
	if job.Execute {
		printTopOutput(res.Output, 10)
	}
	return nil
}

// analyzeDoc is the -json output schema of the analyze subcommand.
type analyzeDoc struct {
	App       string                   `json:"app"`
	Target    string                   `json:"target"`
	Scheduler string                   `json:"scheduler"`
	Result    *datanet.Result          `json:"result"`
	Metrics   *datanet.MetricsSnapshot `json:"metrics"`
}

// writeTrace exports the recorded timeline in the requested format.
func writeTrace(rec *datanet.Trace, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if format == "chrome" {
		err = rec.WriteChromeTrace(f)
	} else {
		err = rec.WriteJSONL(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

func runTop(args []string) error {
	c := newCommon("top")
	n := c.fs.Int("n", 10, "how many sub-datasets to list")
	metaIn := c.fs.String("meta", "", "answer from an encoded ElasticMap array instead of scanning the raw data")
	c.fs.Parse(args)
	if *metaIn != "" {
		// Meta-only path: no raw-data scan at all — the point of keeping
		// the meta-data around.
		blob, err := os.ReadFile(*metaIn)
		if err != nil {
			return err
		}
		meta, err := datanet.DecodeMeta(blob, "data")
		if err != nil {
			return err
		}
		idx := meta.Array().Index()
		top := idx.Top(*n)
		fmt.Printf("%d dominant sub-datasets in the meta-data; top %d by recorded volume (no raw scan):\n",
			idx.DominantSubs(), len(top))
		for _, e := range top {
			fmt.Printf("  %-32s %12d bytes\n", e.Sub, e.Bytes)
		}
		return nil
	}
	if _, err := c.load(); err != nil {
		return err
	}
	totals := records.BySub(c.loaded)
	type kv struct {
		sub string
		sz  int64
	}
	all := make([]kv, 0, len(totals))
	for s, z := range totals {
		all = append(all, kv{s, z})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].sz != all[j].sz {
			return all[i].sz > all[j].sz
		}
		return all[i].sub < all[j].sub
	})
	if *n > len(all) {
		*n = len(all)
	}
	fmt.Printf("%d sub-datasets; top %d by volume:\n", len(all), *n)
	for _, e := range all[:*n] {
		fmt.Printf("  %-32s %12d bytes\n", e.sub, e.sz)
	}
	return nil
}

// runVerify cross-checks persisted meta-data against the raw dataset:
// block counts, overall accuracy χ, and per-sub-dataset spot checks.
func runVerify(args []string) error {
	c := newCommon("verify")
	metaIn := c.fs.String("meta", "", "encoded ElasticMap array to verify")
	samples := c.fs.Int("samples", 10, "how many sub-datasets to spot-check")
	c.fs.Parse(args)
	if *metaIn == "" {
		return fmt.Errorf("-meta is required")
	}
	hfs, err := c.load()
	if err != nil {
		return err
	}
	blob, err := os.ReadFile(*metaIn)
	if err != nil {
		return err
	}
	meta, err := datanet.DecodeMeta(blob, "data")
	if err != nil {
		return err
	}
	info, err := hfs.Stat("data")
	if err != nil {
		return err
	}
	arr := meta.Array()
	fmt.Printf("meta-data: %d blocks; dataset: %d blocks\n", arr.Len(), len(info.Blocks))
	if arr.Len() != len(info.Blocks) {
		return fmt.Errorf("block count mismatch — the meta-data was built for a different layout (block size or dataset)")
	}
	truth := records.BySub(c.loaded)
	subs := make([]string, 0, len(truth))
	for sub := range truth {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	chi := arr.OverallAccuracy(subs)
	fmt.Printf("overall accuracy χ: %.1f%%\n", chi*100)

	// Spot-check the largest sub-datasets: dominant entries must be exact.
	sort.Slice(subs, func(i, j int) bool {
		if truth[subs[i]] != truth[subs[j]] {
			return truth[subs[i]] > truth[subs[j]]
		}
		return subs[i] < subs[j]
	})
	n := *samples
	if n > len(subs) {
		n = len(subs)
	}
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
		fmt.Printf("  %-32s truth %10d  estimate %10d  (%+.2f%%)\n",
			sub, truth[sub], est, pctDiff(est, truth[sub]))
	}
	if chi < 0.5 {
		return fmt.Errorf("verification failed: χ %.1f%% — meta-data does not describe this dataset", chi*100)
	}
	fmt.Printf("verified: worst top-%d relative error %.2f%%\n", n, worst*100)
	return nil
}

// runChaos drives the randomized robustness harness: N seeds, each
// drawing its own fault plan and policy bundle (detector, rebalancer,
// mitigation, partitioner), every arm, every invariant. Violations are
// printed with their replay seed and bundle and fail the command; -shrink
// additionally reduces the first violating plan to a minimal
// counterexample under that seed's bundle.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	runs := fs.Int("runs", 100, "number of seeds to check")
	seed := fs.Uint64("seed", 1, "base seed of the campaign (plans and policy bundles derive from it)")
	shrink := fs.Bool("shrink", false, "reduce the first violating plan to a minimal counterexample")
	cp := chaos.DefaultClusterParams()
	fs.IntVar(&cp.Nodes, "cluster", 0, "check the sharded metadata cluster with N nodes instead of the job engine (0 = engine)")
	fs.IntVar(&cp.Replicas, "replicas", 2, "followers per shard in cluster chaos")
	fs.IntVar(&cp.Shards, "shards", 4, "catalog shards in cluster chaos")
	fs.Var(&cp.Detect.Mode, "detect", "failure detector in cluster chaos: oracle | heartbeat | phi")
	fs.Parse(args)
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if cp.Nodes > 0 {
		return runClusterChaos(*runs, *seed, cp, *shrink)
	}
	p := chaos.DefaultParams()
	rep, err := chaos.Run(*runs, *seed, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos: %d runs (%d crashes, %d slowdowns, %d read-error runs; %s): %d violations\n",
		rep.Runs, rep.Crashes, rep.Slowdowns, rep.ReadErrorRuns, rep.Census(), len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	if *shrink {
		v := rep.Violations[0]
		h, err := chaos.NewHarness(p)
		if err != nil {
			return err
		}
		min := chaos.Shrink(v.Plan, func(q *datanet.FaultPlan) bool {
			for _, w := range h.CheckPlan(v.Seed, q) {
				if w.Scheduler == v.Scheduler && w.Invariant == v.Invariant {
					return true
				}
			}
			return false
		})
		fmt.Fprintf(stdout, "minimal counterexample for seed %d (%s/%s):\n  %+v\n",
			v.Seed, v.Scheduler, v.Invariant, *min)
	}
	return fmt.Errorf("chaos: %d invariant violations in %d runs", len(rep.Violations), rep.Runs)
}

// runClusterChaos is the -cluster mode of the chaos subcommand: seeded
// crash/rejoin/decommission/addnode plans with client traffic against the
// sharded metadata cluster, checking the failover invariants (no lost
// arrays, no unflagged stale reads, exactly one primary per shard,
// bounded convergence, bit-identical replay).
func runClusterChaos(runs int, seed uint64, p chaos.ClusterParams, shrink bool) error {
	rep, err := chaos.RunCluster(runs, seed, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chaos: %d cluster runs (%d nodes, %d shards, %d replicas) under %s detection: %d crashes, %d rejoins, %d decommissions, %d adds, %d appends, %d reads, %d retries: %d violations\n",
		rep.Runs, p.Nodes, p.Shards, p.Replicas, p.Detect.Mode,
		rep.Crashes, rep.Rejoins, rep.Decommissions, rep.AddNodes, rep.Appends, rep.Reads,
		rep.Retries, len(rep.Violations))
	if len(rep.Violations) == 0 {
		return nil
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stdout, "  %s\n", v)
	}
	if shrink {
		v := rep.Violations[0]
		min := chaos.ShrinkCluster(v.Plan, p, v.Invariant)
		blob, err := json.MarshalIndent(min, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "minimal counterexample for seed %d (%s):\n%s\n", v.Seed, v.Invariant, blob)
	}
	return fmt.Errorf("chaos: %d cluster invariant violations in %d runs", len(rep.Violations), rep.Runs)
}

// parseFaultPlan assembles a datanet.FaultPlan from the CLI specs:
// -crash "4@10,11@10:25" (node 4 dies at 10 s; node 11 dies at 10 s and
// rejoins at 25 s), -slow "3x0.5" (node 3 at half speed), -readerr 0.01.
// It returns nil when no fault knob is set so the engine stays on the
// fault-free fast path.
func parseFaultPlan(crashSpec, slowSpec string, readErr float64, seed int64) (*datanet.FaultPlan, error) {
	if crashSpec == "" && slowSpec == "" && readErr == 0 {
		return nil, nil
	}
	plan := &datanet.FaultPlan{Seed: seed, Read: datanet.ReadErrors{Prob: readErr}}
	if crashSpec != "" {
		for _, part := range strings.Split(crashSpec, ",") {
			nodeStr, timeStr, ok := strings.Cut(part, "@")
			if !ok {
				return nil, fmt.Errorf("bad -crash entry %q (want N@T[:REJOIN])", part)
			}
			node, err := strconv.Atoi(nodeStr)
			if err != nil {
				return nil, fmt.Errorf("bad -crash node in %q: %v", part, err)
			}
			atStr, rejoinStr, hasRejoin := strings.Cut(timeStr, ":")
			at, err := strconv.ParseFloat(atStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -crash time in %q: %v", part, err)
			}
			cr := datanet.Crash{Node: datanet.NodeID(node), At: at}
			if hasRejoin {
				if cr.RejoinAt, err = strconv.ParseFloat(rejoinStr, 64); err != nil {
					return nil, fmt.Errorf("bad -crash rejoin in %q: %v", part, err)
				}
			}
			plan.Crashes = append(plan.Crashes, cr)
		}
	}
	if slowSpec != "" {
		for _, part := range strings.Split(slowSpec, ",") {
			nodeStr, facStr, ok := strings.Cut(part, "x")
			if !ok {
				return nil, fmt.Errorf("bad -slow entry %q (want NxF)", part)
			}
			node, err := strconv.Atoi(nodeStr)
			if err != nil {
				return nil, fmt.Errorf("bad -slow node in %q: %v", part, err)
			}
			f, err := strconv.ParseFloat(facStr, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -slow factor in %q: %v", part, err)
			}
			plan.Slow = append(plan.Slow, datanet.Slowdown{
				Node: datanet.NodeID(node), CPU: f, Disk: f, Net: f,
			})
		}
	}
	return plan, nil
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
	fmt.Printf("  output (%d keys, first %d):\n", len(keys), n)
	for _, k := range keys[:n] {
		v := out[k]
		if len(v) > 60 {
			v = v[:60] + "…"
		}
		fmt.Printf("    %-20s %s\n", k, v)
	}
}

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

func sparkline(xs []int64) string {
	if len(xs) == 0 {
		return ""
	}
	width := 60
	if width > len(xs) {
		width = len(xs)
	}
	cells := make([]int64, width)
	for i := range cells {
		lo, hi := i*len(xs)/width, (i+1)*len(xs)/width
		if hi <= lo {
			hi = lo + 1
		}
		mx := xs[lo]
		for _, v := range xs[lo:hi] {
			if v > mx {
				mx = v
			}
		}
		cells[i] = mx
	}
	var mn, mx int64 = cells[0], cells[0]
	for _, v := range cells {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	var sb strings.Builder
	for _, v := range cells {
		idx := 0
		if mx > mn {
			idx = int(float64(v-mn) / float64(mx-mn) * float64(len(sparkLevels)-1))
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

func pctDiff(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a-b) / float64(b) * 100
}
