// Command bench is the repository's benchmark: seven seeded, self-checking
// workloads over the public functions of the datanet packages, timed end to
// end with tracing off and decomposed per layer in a separate traced run.
// See README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench -workload build            one workload, end-to-end metrics
//	go run ./bench -workload build -trace 1   its traced run, per-layer metrics
//	go run ./bench -all                       every workload, both ways, into bench/out/results.json
//	go run ./bench -check bench/baseline.json a fresh -all judged against a base
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload to run: build, analyze, engine, suite, serve-warm, serve-cold or cluster-append")
	seed := fl.Int64("seed", defaultSeed, "seed of the generated dataset, the block placements and the request mixes")
	seconds := fl.Float64("seconds", runSeconds, "how long to keep running timed passes (at least two are run)")
	repeats := fl.Int("repeats", 0, "run exactly this many timed passes instead of filling -seconds")
	trace := fl.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes <out>/<workload>.trace.jsonl")
	all := fl.Bool("all", false, "run every workload in its own process, untraced then traced, and write <out>/results.json")
	check := fl.String("check", "", "run -all and judge it against this results file; exit 1 on a regression")
	quick := fl.Bool("quick", false, "smoke-test sizes; the numbers mean nothing")
	outDir := fl.String("out", filepath.Join("bench", "out"), "directory for traces and result records")
	bless := fl.Bool("bless", false, "rewrite this workload's entry in "+referencePath)
	printManifest := fl.Bool("manifest", false, "print BENCHMARK.json, generated from bounds.go, and exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if fl.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	if *printManifest {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(buildManifest())
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of the datanet module: %w", err)
	}

	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, repeats: *repeats, trace: *trace != 0,
		quick: *quick, outDir: *outDir, bless: *bless,
	}
	switch {
	case *check != "":
		var base resultsFile
		if err := readJSON(*check, &base); err != nil {
			return err
		}
		fresh, err := runAll(cfg)
		if err != nil {
			return err
		}
		if !compareResults(&base, fresh, os.Stdout) {
			return fmt.Errorf("regression against %s", *check)
		}
		return nil
	case *all:
		_, err := runAll(cfg)
		return err
	case *workload == "":
		fl.Usage()
		return fmt.Errorf("need -workload, -all or -check")
	}

	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := writeJSON(resultPath(cfg.outDir, cfg.workload, cfg.trace), res); err != nil {
		return err
	}
	printResult(res)
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printResult lists every metric by name with its unit and spread, then
// the failures, for a human; the contract's JSON line follows it.
func printResult(res *workloadResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: %d passes, %d ops attempted, %d failed\n", res.Workload, res.Seed, res.Passes, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		if m.N == 0 {
			continue // a per-layer metric this workload does not exercise
		}
		fmt.Printf("  %-40s %14.4f %-6s (min %.4f max %.4f n %d)\n", name, m.Value, m.Unit, m.Min, m.Max, m.N)
	}
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// runAll runs every workload as a subprocess of this same binary — heap
// growth and GC pacing of one workload must not leak into the next — first
// untraced, then traced, and gathers their records into one results file.
func runAll(cfg runConfig) (*resultsFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := &resultsFile{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Repeats: cfg.repeats, Sizes: cfg.sizes(),
		EndToEnd: map[string]*workloadResult{}, PerLayer: map[string]*workloadResult{},
	}
	for _, traced := range []bool{false, true} {
		for _, w := range workloadDefs {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-repeats", strconv.Itoa(cfg.repeats),
				"-out", cfg.outDir}
			if traced {
				args = append(args, "-trace", "1")
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s (traced %v): %w", w.name, traced, err)
			}
			var res workloadResult
			if err := readJSON(resultPath(cfg.outDir, w.name, traced), &res); err != nil {
				return nil, err
			}
			if traced {
				out.PerLayer[w.name] = &res
			} else {
				out.EndToEnd[w.name] = &res
			}
		}
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeJSON(path, out); err != nil {
		return nil, err
	}
	fmt.Println("results written to", path)
	return out, nil
}
