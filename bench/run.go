package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run performs the full set-up; setup_s is
// the median. The last instance is the one the passes run on.
const setupRepeats = 3

// simStat is the simulated outcome of one job. Simulated statistics repeat
// exactly, so they are compared with ==: between passes, and at the default
// seed against testdata/reference.json.
type simStat struct {
	Key       string  `json:"key"`
	JobTime   float64 `json:"job_time"`
	FilterEnd float64 `json:"filter_end"`
	Tasks     int     `json:"tasks"`
}

// passResult is what one pass over a workload's op list produced.
type passResult struct {
	// lat is the latency in ms of every request (reads, on
	// cluster-append) of a serving workload. The batch workloads leave it
	// empty: what their user waits for is the whole pass, so the pass wall
	// is their one latency sample.
	lat []float64
	// opMs is the wall in ms of every op of a batch workload — job, stage
	// or section, in op order — which layers() turns into per-layer metrics.
	opMs []float64
	// appendLat is the latency in ms of every append (cluster-append only).
	appendLat []float64
	// attempted and failed count ops; failures describes the first few.
	attempted, failed int
	failures          []string
	// digest is the commutative request/response digest (serving only).
	digest uint64
	// sim lists simulated job statistics in op order (analyze and engine).
	sim []simStat
	// counts are exact per-pass counters a workload's layers() reads back.
	counts map[string]int64
	// verify, when set, checks the pass's outputs after the clock stopped,
	// for checks that cost as much as the work they check.
	verify func()
}

// fail counts one failed op and keeps the first few descriptions.
func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// layerCtx is what a workload derives its per-layer metrics from: its
// passes, and the end-to-end numbers where a layer metric is defined
// against them.
type layerCtx struct {
	// passes are the timed passes followed by the traced one.
	passes []*passResult
	e2e    map[string]measured
	out    map[string]measured
}

// set records a per-layer metric measured once.
func (lc *layerCtx) set(name string, v float64) { lc.setSamples(name, []float64{v}) }

// setSamples records a per-layer metric as the median of several samples.
func (lc *layerCtx) setSamples(name string, xs []float64) {
	spec, ok := specOf(name)
	if !ok {
		panic("bench: metric " + name + " is not declared in bounds.go")
	}
	lc.out[name] = measure(xs, spec.Unit)
}

// instance is one set-up workload.
type instance interface {
	// prepare does, outside the timed region, what each pass needs afresh.
	prepare() error
	// pass runs the workload's fixed op list once. An op that fails a
	// check is counted in the result; an error means the pass could not run.
	pass(tr *tracer) (*passResult, error)
	// layers fills the workload's home per-layer metrics from the traced
	// pass and from isolation measurements of single public calls.
	layers(lc *layerCtx) error
	// close releases servers and goroutines.
	close()
}

// workloadDef is one workload: its name, why it exists (both go into
// BENCHMARK.json) and its set-up.
type workloadDef struct {
	name, why string
	setup     func(seed int64, sz sizes) (instance, error)
	// fixedPasses > 0 runs exactly that many timed passes whatever -seconds
	// says, and no untimed warm-up pass before them (suite: a pass is ~18 s).
	fixedPasses int
}

var workloadDefs = []workloadDef{
	{name: "build", setup: setupBuild,
		why: "ingest pipeline (records decode, hdfs write, ElasticMap build, encode): all work in records/hdfs/elasticmap/bloom, none in engine or server"},
	{name: "analyze", setup: setupAnalyze,
		why: "executed analysis jobs, 5 apps under DataNet and locality scheduling: apps Map/Reduce dominates, so engine-only changes must show no gain here"},
	{name: "engine", setup: setupEngine,
		why: "simulator alone on 1024 nodes, no app execution: sim/sched/mapreduce/straggle/partition do the work and apps none"},
	{name: "suite", setup: setupSuite, fixedPasses: 1,
		why: "the full paper experiment suite at 2 workers, checked byte for byte against suite.golden: stresses gen and experiments, which nothing else times"},
	{name: "serve-warm", setup: setupServeWarm,
		why: "closed loop, 2 clients, 64-key pool that fits the per-epoch cache: stresses mux, cache, marshal and transport"},
	{name: "serve-cold", setup: setupServeCold,
		why: "same server and mix over every sub-dataset, far more keys than cache entries: stresses Eq. 6 scans, Bloom probes and plan construction"},
	{name: "cluster-append", setup: setupClusterAppend,
		why: "3-node cluster, one client alternating an append with 20 reads: every append republishes snapshot and index and empties the cache"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// measured is one metric of one run: the median over its samples (timed
// passes, or repeated set-ups) with the spread that makes noise visible.
type measured struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	Unit  string  `json:"unit"`
}

func measure(xs []float64, unit string) measured {
	lo, hi := minMax(xs)
	return measured{Value: median(xs), Min: lo, Max: hi, N: len(xs), Unit: unit}
}

// workloadResult is the full record of one run, written to
// <out>/<workload>.json (or .trace.json) and gathered by -all.
type workloadResult struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Seed      int64               `json:"seed"`
	Passes    int                 `json:"passes"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	Digest    string              `json:"digest,omitempty"`
	Sim       []simStat           `json:"sim,omitempty"`
	Metrics   map[string]measured `json:"metrics"`
}

// resultLine is the last line of standard output, in the shape the
// benchmark contract fixes.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *workloadResult) line() resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(r.Metrics))}
	for name, m := range r.Metrics {
		l.Metrics[name] = metricValue{m.Value, m.Unit}
	}
	return l
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	repeats  int
	trace    bool
	quick    bool
	outDir   string
	bless    bool
}

// sizes returns the input sizes the run uses.
func (c runConfig) sizes() sizes {
	if c.quick {
		return quickSizes
	}
	return fullSizes
}

// timedPass runs one pass between two memory readings.
func timedPass(inst instance, tr *tracer) (res *passResult, wall, allocMB float64, err error) {
	if err := inst.prepare(); err != nil {
		return nil, 0, 0, err
	}
	// Every pass starts from a collected heap, so that the collections it
	// pays for are the ones its own allocation triggers: without this a
	// 0.2 s pass ran 0 or 1 GC cycles depending on where the previous pass
	// had left the heap, and pass walls in one process ranged 0.18–0.36 s.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("pass", "bench")
	start := time.Now()
	res, err = inst.pass(tr)
	wall = time.Since(start).Seconds()
	tr.end(id, 0)
	runtime.ReadMemStats(&after)
	if err == nil && res.verify != nil {
		res.verify()
		res.verify = nil // and with it the outputs it compared
	}
	return res, wall, float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), err
}

// runWorkload sets the workload up, runs its passes and gathers the metrics.
func runWorkload(cfg runConfig) (*workloadResult, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	var inst instance
	var setupTimes []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			// Drop the previous instance before building the next, so the
			// peak resident set is one set-up's, not two.
			inst.close()
			inst = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if inst, err = def.setup(cfg.seed, cfg.sizes()); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer inst.close()

	res := &workloadResult{Workload: cfg.workload, Traced: cfg.trace, Seed: cfg.seed, Metrics: map[string]measured{}}
	absorb := func(p *passResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, f := range p.failures {
			if len(res.Failures) < 8 {
				res.Failures = append(res.Failures, f)
			}
		}
	}
	var first *passResult // every later pass must repeat its digest and simulated statistics
	compare := func(p *passResult) {
		if first == nil {
			first = p
			return
		}
		if p.digest != first.digest {
			p.fail("request/response digest %016x differs from the first pass's %016x", p.digest, first.digest)
		}
		if d := diffSim(first.sim, p.sim); d != "" {
			p.fail("replay determinism: %s", d)
		}
	}

	if def.fixedPasses == 0 {
		p, _, _, err := timedPass(inst, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		compare(p)
		absorb(p)
	}
	runtime.GC()

	// A traced run spends half its time on untimed-tracer passes (the
	// base of bench.trace_overhead_share), then one traced pass.
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	var walls, allocs, opRates []float64
	var lats, appendLats [][]float64 // latency samples, one slice per timed pass
	var tracedTr *tracer
	var passes []*passResult
	measureStart := time.Now()
	more := func(n int) bool {
		switch {
		case def.fixedPasses > 0:
			return n < def.fixedPasses
		case cfg.repeats > 0:
			return n < cfg.repeats
		default:
			return n < 2 || time.Since(measureStart).Seconds() < budget
		}
	}
	for n := 0; more(n); n++ {
		var tr *tracer
		if cfg.trace && def.fixedPasses > 0 {
			// A workload too long to repeat traces the pass it times; its
			// spans are built from what the pass returns, so there is no
			// tracing overhead to report.
			tr = newTracer()
		}
		p, wall, alloc, err := timedPass(inst, tr)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", n+1, err)
		}
		compare(p)
		absorb(p)
		walls, allocs = append(walls, wall), append(allocs, alloc)
		opRates = append(opRates, float64(len(p.lat)+len(p.appendLat)+len(p.opMs))/wall)
		lat := p.lat
		if len(lat) == 0 {
			lat = []float64{wall * 1e3}
		}
		lats = append(lats, lat)
		if len(p.appendLat) > 0 {
			appendLats = append(appendLats, p.appendLat)
		}
		passes = append(passes, p)
		if tr != nil {
			tracedTr = tr
		}
	}
	res.Passes = len(walls)

	e2e := map[string]measured{
		"setup_s":           measure(setupTimes, "s"),
		"pass_s":            measure(walls, "s"),
		"req_per_s":         measure(opRates, "1/s"),
		"p50_ms":            pooledPercentile(lats, 50),
		"p99_ms":            pooledPercentile(lats, 99),
		"alloc_mb_per_pass": measure(allocs, "MB"),
	}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		e2e["peak_rss_mb"] = measure([]float64{rss}, "MB")
		res.Metrics = e2e
	} else {
		if tracedTr == nil {
			tracedTr = newTracer()
			p, wall, _, err := timedPass(inst, tracedTr)
			if err != nil {
				return nil, fmt.Errorf("traced pass: %w", err)
			}
			compare(p)
			absorb(p)
			passes = append(passes, p)
			res.Metrics["bench.trace_overhead_share"] = measure([]float64{wall/median(walls) - 1}, "share")
		}
		if err := writeTrace(cfg.outDir, cfg.workload, tracedTr.spans); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		lc := &layerCtx{passes: passes, e2e: e2e, out: res.Metrics}
		if err := inst.layers(lc); err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		if len(appendLats) > 0 {
			res.Metrics["append_p50_ms"] = pooledPercentile(appendLats, 50)
			res.Metrics["append_p90_ms"] = pooledPercentile(appendLats, 90)
		}
		// Every workload reports every per-layer metric; one it does not
		// exercise reads 0.
		for _, s := range perLayer {
			if _, ok := res.Metrics[s.Name]; !ok {
				res.Metrics[s.Name] = measured{Unit: s.Unit}
			}
		}
	}

	if first != nil {
		res.Digest = fmt.Sprintf("%016x", first.digest)
		res.Sim = first.sim
		if err := checkReference(cfg, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pooledPercentile is the p-th percentile of the latency samples of all
// timed passes pooled — or, when the pool is too small to have ten samples
// beyond it, the highest percentile that has (with a pass wall as the only
// sample of a pass, that is the median). The per-pass values of the same
// percentile give the spread.
func pooledPercentile(perPass [][]float64, p float64) measured {
	var pooled, each []float64
	for _, xs := range perPass {
		pooled = append(pooled, xs...)
	}
	p = math.Min(p, highestPercentile(len(pooled)))
	for _, xs := range perPass {
		each = append(each, percentile(xs, p))
	}
	m := measure(each, "ms")
	m.Value, m.N = percentile(pooled, p), len(pooled)
	return m
}

// diffSim describes the first difference between two passes' simulated
// statistics; "" when they are identical.
func diffSim(a, b []simStat) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d jobs, first pass had %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("job %s: %+v, first pass had %+v", a[i].Key, b[i], a[i])
		}
	}
	return ""
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// resultPath is where a run's full record goes.
func resultPath(outDir, workload string, traced bool) string {
	if traced {
		return filepath.Join(outDir, workload+".trace.json")
	}
	return filepath.Join(outDir, workload+".json")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
