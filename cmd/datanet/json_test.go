package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datanet"
	"datanet/internal/gen"
)

var update = flag.Bool("update", false, "rewrite golden files")

// captureStdout routes the command's stdout writer into a buffer.
func captureStdout(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	prev := stdout
	stdout = &buf
	t.Cleanup(func() { stdout = prev })
	return &buf
}

func analyzeJSON(t *testing.T, data string) []byte {
	t.Helper()
	buf := captureStdout(t)
	if err := runAnalyze([]string{"-data", data, "-sub", gen.MovieID(0), "-app", "topk",
		"-sched", "datanet", "-block", "32768", "-nodes", "8", "-racks", "2", "-out", "json=-"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAnalyzeJSONGolden(t *testing.T) {
	compareGolden(t, "analyze.golden", analyzeJSON(t, writeDataset(t)))
}

// The text report of a run that exercises every optional line: faults,
// heartbeat detection, speculation and skew partitioning.
func TestAnalyzeTextGolden(t *testing.T) {
	buf := captureStdout(t)
	if err := runAnalyze([]string{"-data", writeDataset(t), "-sub", gen.MovieID(0), "-app", "wordcount",
		"-block", "32768", "-nodes", "8", "-racks", "2", "-crash", "1@0.5:2", "-slow", "3x0.5",
		"-detect", "heartbeat", "-mitigate", "speculative:0.75", "-partition", "skew"}); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "analyze_text.golden", buf.Bytes())
}

func TestAnalyzeJSONShape(t *testing.T) {
	data := writeDataset(t)
	blob := analyzeJSON(t, data)
	var doc analyzeDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	if doc.App == "" || doc.Target != gen.MovieID(0) || doc.Scheduler != "datanet" {
		t.Fatalf("header = %q/%q/%q", doc.App, doc.Target, doc.Scheduler)
	}
	if doc.Result == nil || doc.Result.JobTime <= 0 {
		t.Fatalf("result = %+v", doc.Result)
	}
	if doc.Metrics == nil || doc.Metrics.Counters["events.sched.decision"] == 0 {
		t.Fatalf("metrics missing decision audit: %+v", doc.Metrics)
	}
	// Same dataset, same flags: the document is reproducible byte for byte.
	if again := analyzeJSON(t, data); !bytes.Equal(blob, again) {
		t.Error("-json output is not deterministic")
	}
}

func TestAnalyzeTraceFiles(t *testing.T) {
	if inChild() {
		return
	}
	data := writeDataset(t)
	dir := t.TempDir()
	jsonl, chrome, doc := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "run.json"), filepath.Join(dir, "doc.json")
	args := []string{"-data", data, "-sub", gen.MovieID(0), "-app", "wordcount",
		"-sched", "datanet", "-block", "32768", "-nodes", "8", "-racks", "2"}

	var first []byte
	for i := 0; i < 2; i++ {
		buf := captureStdout(t)
		if err := runAnalyze(append(args, "-out", "jsonl="+jsonl, "-out", "chrome="+chrome, "-out", "json="+doc)); err != nil {
			t.Fatal(err)
		}
		// Outputs to files leave the text report on stdout.
		if !strings.Contains(buf.String(), "out: chrome written to "+chrome) {
			t.Fatalf("text report does not list the outputs:\n%s", buf)
		}
		blob, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = blob
			for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
				var ev datanet.TraceEvent
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("bad JSONL line %q: %v", line, err)
				}
			}
		} else if !bytes.Equal(first, blob) {
			t.Error("two identical runs wrote different JSONL traces")
		}
	}

	blob, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	if blob, err = os.ReadFile(doc); err != nil {
		t.Fatal(err)
	}
	var d analyzeDoc
	if err := json.Unmarshal(blob, &d); err != nil || d.Result == nil {
		t.Fatalf("json document invalid: %v", err)
	}

	// An output to stdout replaces the text report.
	buf := captureStdout(t)
	if err := runAnalyze(append(args, "-out", "jsonl=-")); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "total makespan") || !strings.HasPrefix(buf.String(), "{") {
		t.Errorf("-out jsonl=- printed more than the timeline:\n%.200s", buf)
	}

	if got := exitStatus(t, append([]string{"analyze", "-out", "nope=" + chrome}, args...)...); got != 2 {
		t.Errorf("-out nope=FILE: exit status %d, want 2", got)
	}
}
