package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"datanet/internal/gen"
	"datanet/internal/records"
)

// writeDataset produces a small dataset file like cmd/datagen would.
func writeDataset(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.dnr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := records.NewWriter(f)
	for _, r := range gen.Movies(gen.MovieConfig{Movies: 100, Reviews: 5000, Seed: 5}) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBuildAndQuery(t *testing.T) {
	data := writeDataset(t)
	meta := filepath.Join(t.TempDir(), "meta.em")
	if err := runBuild([]string{"-data", data, "-meta", meta, "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(meta); err != nil || st.Size() == 0 {
		t.Fatalf("meta file not written: %v", err)
	}
	if err := runQuery([]string{"-data", data, "-sub", gen.MovieID(0), "-meta", meta, "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
	// Query without a prebuilt meta rebuilds on the fly.
	if err := runQuery([]string{"-data", data, "-sub", gen.MovieID(1), "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnalyze(t *testing.T) {
	data := writeDataset(t)
	for _, app := range []string{"wordcount", "histogram", "movingavg", "topk"} {
		if err := runAnalyze([]string{"-data", data, "-sub", gen.MovieID(0), "-app", app,
			"-sched", "datanet", "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	for _, sched := range []string{"locality", "capacity", "maxflow", "lpt"} {
		if err := runAnalyze([]string{"-data", data, "-sub", gen.MovieID(0), "-app", "wordcount",
			"-sched", sched, "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
	}
	if err := runAnalyze([]string{"-data", data, "-sub", gen.MovieID(0), "-app", "wordcount",
		"-sched", "datanet", "-skip", "-exec", "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnalyzeErrors(t *testing.T) {
	data := writeDataset(t)
	if err := runAnalyze([]string{"-data", data, "-sub", "x", "-app", "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
	if err := runAnalyze([]string{"-data", data, "-sub", "x", "-sched", "nope"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if err := runAnalyze([]string{"-data", data}); err == nil {
		t.Error("missing -sub accepted")
	}
	if err := runAnalyze([]string{"-sub", "x"}); err == nil {
		t.Error("missing -data accepted")
	}
}

func TestRunTop(t *testing.T) {
	data := writeDataset(t)
	if err := runTop([]string{"-data", data, "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runTop([]string{"-data", data, "-n", "99999"}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if err := runBuild([]string{"-data", "/nonexistent/file"}); err == nil {
		t.Error("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.dnr")
	if err := os.WriteFile(bad, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTop([]string{"-data", bad}); err == nil {
		t.Error("corrupt file accepted")
	}
}

func TestSparklineHelper(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	if got := sparkline([]int64{1, 2, 3}); len([]rune(got)) != 3 {
		t.Errorf("sparkline = %q", got)
	}
	if got := sparkline([]int64{5, 5}); len([]rune(got)) != 2 {
		t.Errorf("flat sparkline = %q", got)
	}
}

func TestPctDiff(t *testing.T) {
	if pctDiff(110, 100) != 10 {
		t.Error("pctDiff wrong")
	}
	if pctDiff(5, 0) != 0 {
		t.Error("zero base should give 0")
	}
}

func TestRunTopMetaOnly(t *testing.T) {
	data := writeDataset(t)
	meta := filepath.Join(t.TempDir(), "meta.em")
	if err := runBuild([]string{"-data", data, "-meta", meta, "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runTop([]string{"-meta", meta, "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runTop([]string{"-meta", "/nonexistent.em"}); err == nil {
		t.Error("missing meta accepted")
	}
}

func TestRunVerify(t *testing.T) {
	data := writeDataset(t)
	meta := filepath.Join(t.TempDir(), "meta.em")
	if err := runBuild([]string{"-data", data, "-meta", meta, "-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runVerify([]string{"-data", data, "-meta", meta, "-samples", "3",
		"-block", "32768", "-nodes", "8", "-racks", "2"}); err != nil {
		t.Fatal(err)
	}
	// A mismatched block size changes the layout: verify must refuse.
	if err := runVerify([]string{"-data", data, "-meta", meta, "-block", "8192",
		"-nodes", "8", "-racks", "2"}); err == nil {
		t.Error("layout mismatch accepted")
	}
	if err := runVerify([]string{"-data", data}); err == nil {
		t.Error("missing -meta accepted")
	}
}

// The engine campaign takes a seed and nothing else: its summary line
// carries the census of the policy bundles the seeds drew.
func TestRunChaosPrintsBundleCensus(t *testing.T) {
	buf := &bytes.Buffer{}
	stdout = buf
	defer func() { stdout = os.Stdout }()
	if err := runChaos([]string{"-runs", "12", "-seed", "1"}); err != nil {
		t.Fatalf("chaos: %v\n%s", err, buf)
	}
	census := regexp.MustCompile(`^chaos: 12 runs \(\d+ crashes, \d+ slowdowns, \d+ read-error runs; ` +
		`detect oracle=\d+ heartbeat=\d+ phi=\d+; rebalance off=\d+ hotspot=\d+ anneal=\d+ both=\d+; ` +
		`mitigate off=\d+ speculative=\d+ coded=\d+; partition off=\d+ hash=\d+ skew=\d+ range=\d+\): 0 violations\n$`)
	if !census.Match(buf.Bytes()) {
		t.Fatalf("unexpected chaos output: %s", buf)
	}
}

// The per-policy switches are gone from the chaos subcommand: passing one
// is a usage error (exit status 2). The flag set exits the process, so the
// test re-executes its own binary with the flag's name as an argument.
func TestRunChaosRejectsPolicyFlags(t *testing.T) {
	if args := flag.Args(); len(args) == 1 {
		runChaos([]string{"-" + args[0], "x"})
		return
	}
	for _, name := range []string{"mitigate", "rebalance", "partition"} {
		err := exec.Command(os.Args[0], "-test.run=^TestRunChaosRejectsPolicyFlags$", name).Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("chaos -%s x: %v, want exit status 2", name, err)
		}
	}
}
