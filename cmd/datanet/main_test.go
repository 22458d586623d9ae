package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"datanet/internal/gen"
	"datanet/internal/mapreduce"
	"datanet/internal/records"
)

// writeDataset produces a small dataset file like cmd/datagen would.
func writeDataset(t *testing.T) string {
	return writeRecords(t, gen.Movies(gen.MovieConfig{Movies: 100, Reviews: 5000, Seed: 5}))
}

// writeRecords writes recs to a dataset file as cmd/datagen does.
func writeRecords(t *testing.T, recs []records.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.dnr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := records.NewWriter(f)
	for _, r := range recs {
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
	if inChild() {
		return
	}
	data := writeDataset(t)
	// An unknown app and an out-of-range mitigation parameter fail as the
	// flag set reads them. `coded:NaN` is the case a `rate > 0` check
	// would let through to an unmitigated run.
	for _, bad := range [][]string{
		{"-app", "nope"}, {"-mitigate", "coded:NaN"}, {"-mitigate", "coded:-0.5"}, {"-mitigate", "speculative:1"},
		{"-crash", "2@x"}, {"-slow", "3"}, {"-out", "svg=run.svg"}, {"-out", "json="},
	} {
		if got := exitStatus(t, append([]string{"analyze", "-data", data, "-sub", "x"}, bad...)...); got != 2 {
			t.Errorf("analyze %v: exit status %d, want 2", bad, got)
		}
	}
	if err := runAnalyze([]string{"-data", data, "-sub", "x", "-app", "join"}); err == nil {
		t.Error("-app join without -join-sub accepted")
	}
	if err := runAnalyze([]string{"-data", data}); err == nil {
		t.Error("missing -sub accepted")
	}
	if err := runAnalyze([]string{"-sub", "x"}); err == nil {
		t.Error("missing -data accepted")
	}
}

// The policy flags parse into their values as the flag set reads them, so
// a name no policy knows is a usage error (exit status 2); so are the
// spellings -mitigate and -out replaced, and the retired -rebalance.
func TestRunAnalyzeRejectsPolicyNames(t *testing.T) {
	if inChild() {
		return
	}
	for _, name := range []string{"sched", "detect", "partition", "rebalance", "mitigate",
		"speculate", "spec-quantile", "coded", "trace", "trace-format", "json"} {
		if got := exitStatus(t, "analyze", "-"+name, "nope"); got != 2 {
			t.Errorf("analyze -%s nope: exit status %d, want 2", name, got)
		}
	}
	// The φ detector is gone; its name is an unknown value like any other.
	// A negative detector duration fails the policy bundle's validation
	// instead of running as the default.
	for _, bad := range [][]string{{"-detect", "phi"}, {"-hb-interval", "-5"}, {"-hb-timeout", "-1"},
		{"-detect", "heartbeat", "-crash", "1@0.5", "-hb-interval", "-5"}} {
		if got := exitStatus(t, append([]string{"analyze"}, bad...)...); got != 2 {
			t.Errorf("analyze %v: exit status %d, want 2", bad, got)
		}
	}
}

// The CLI and the sweeps read a policy line the same way: a sample of the
// experiments' and the chaos corpus's static arm lines, parsed by the
// analyze flag set, selects the bundle mapreduce.Bundle.Set gives.
func TestAnalyzeParsesSweepLines(t *testing.T) {
	for _, line := range []string{
		"-sched locality",
		"-sched datanet",
		"-sched capacity",
		"-sched locality -mitigate speculative:0.75",
		"-sched locality -mitigate coded:0.7",
		"-sched locality -detect heartbeat",
		"-partition range",
		"-partition off",
		"-detect heartbeat -hb-interval 0.02 -mitigate coded -partition range",
	} {
		var want mapreduce.Bundle
		if err := want.Set(line); err != nil {
			t.Fatalf("Set(%q): %v", line, err)
		}
		f := newAnalyzeFlags()
		if err := f.fs.Parse(strings.Fields(line)); err != nil {
			t.Fatalf("analyze %s: %v", line, err)
		}
		if f.policy != want {
			t.Errorf("analyze %s selects %+v, Set gives %+v", line, f.policy, want)
		}
	}
}

func TestRunTop(t *testing.T) {
	if inChild() {
		return
	}
	data := writeDataset(t)
	if err := runTop([]string{"-data", data, "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := runTop([]string{"-data", data, "-n", "99999"}); err != nil {
		t.Fatal(err)
	}
	// A negative count once sliced past the list's start and panicked.
	if got := exitStatus(t, "top", "-data", data, "-n", "-1"); got != 2 {
		t.Errorf("top -n -1: exit status %d, want 2", got)
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
	if inChild() {
		return
	}
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
	// A negative count once sliced past the list's start and panicked.
	if got := exitStatus(t, "verify", "-data", data, "-meta", meta, "-samples", "-1"); got != 2 {
		t.Errorf("verify -samples -1: exit status %d, want 2", got)
	}
}

// The 1 000-run campaigns' summary lines are pinned byte for byte: the
// engine's carries the census of the plans and policy bundles the seeds
// drew, so a change in what the seeds draw fails here instead of quietly
// covering something else. Under -race each would take about half a
// minute on two cores, so they run in non-race test runs only.
func TestRunChaosEngineGolden(t *testing.T) {
	chaosGolden(t, "chaos.golden", "-runs", "1000", "-seed", "1")
}

func TestRunChaosClusterGolden(t *testing.T) {
	chaosGolden(t, "chaos_cluster.golden", "-cluster", "4", "-replicas", "2", "-runs", "1000", "-seed", "1")
}

// chaosGolden runs `datanet chaos args...` and compares its stdout with
// testdata/golden.
func chaosGolden(t *testing.T, golden string, args ...string) {
	if raceEnabled {
		t.Skip("a 1 000-run campaign under -race")
	}
	buf := captureStdout(t)
	if err := runChaos(args); err != nil {
		t.Fatalf("chaos %v: %v\n%s", args, err, buf)
	}
	compareGolden(t, golden, buf.Bytes())
}

// The per-policy switches are gone from the chaos subcommand: passing one
// is a usage error (exit status 2).
func TestRunChaosRejectsPolicyFlags(t *testing.T) {
	if inChild() {
		return
	}
	for _, name := range []string{"mitigate", "rebalance", "partition"} {
		if got := exitStatus(t, "chaos", "-"+name, "x"); got != 2 {
			t.Errorf("chaos -%s x: exit status %d, want 2", name, got)
		}
	}
}

// Counts are unsigned and at least 1, and the cluster campaign's flags
// apply only with -cluster: anything else is a usage error (exit status
// 2), never a campaign run with other values than the ones asked for.
func TestRunChaosRejectsBadCounts(t *testing.T) {
	if inChild() {
		return
	}
	for _, bad := range [][]string{
		{"-cluster", "4", "-replicas", "0"}, {"-cluster", "4", "-replicas", "-3"},
		{"-cluster", "4", "-shards", "0"}, {"-cluster", "-2"}, {"-runs", "0"},
		{"-detect", "hb"}, {"-replicas", "9"}, {"-shards", "2"},
		{"-cluster", "4", "-detect", "phi"},
	} {
		if got := exitStatus(t, append([]string{"chaos"}, bad...)...); got != 2 {
			t.Errorf("chaos %v: exit status %d, want 2", bad, got)
		}
	}
}

// The help text of analyze and chaos is pinned, like serve's and loadgen's.
func TestAnalyzeHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	f := newAnalyzeFlags()
	f.fs.SetOutput(&buf)
	f.fs.Usage()
	compareGolden(t, "analyze_help.golden", buf.Bytes())
}

func TestChaosHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	f := newChaosFlags()
	f.fs.SetOutput(&buf)
	f.fs.Usage()
	compareGolden(t, "chaos_help.golden", buf.Bytes())
}

// inChild runs `datanet ARGS...` when exitStatus started this test binary
// with ARGS after its own flags, and reports whether it did.
func inChild() bool {
	if flag.NArg() == 0 {
		return false
	}
	os.Args = append([]string{"datanet"}, flag.Args()...)
	main()
	return true
}

// exitStatus runs `datanet args...` in a child copy of the test binary and
// returns its exit status: a flag set exits the process on a usage error.
// The child re-enters the calling test, which must begin with
// `if inChild() { return }`. A panic also exits with status 2, so a child
// that panicked fails the test.
func exitStatus(t *testing.T, args ...string) int {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^" + t.Name() + "$"}, args...)...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	if bytes.Contains(stderr.Bytes(), []byte("panic:")) {
		t.Fatalf("datanet %v panicked:\n%s", args, stderr.Bytes())
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0
}
