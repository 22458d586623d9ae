package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datanet/internal/experiments"
)

func TestOnlyPrintsTheRegistrySection(t *testing.T) {
	var want bytes.Buffer
	if err := experiments.RunSection(&want, "fig2"); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "fig2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-only fig2 exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) || stdout.Len() == 0 {
		t.Errorf("-only fig2 printed %d bytes, the registry's section is %d bytes", stdout.Len(), want.Len())
	}
	if stderr.Len() != 0 {
		t.Errorf("-only fig2 wrote to stderr: %s", stderr.String())
	}
}

func TestUnknownExperimentListsTheValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// "detect" was an alias of the retired hand-written switch.
	if code := run([]string{"-only", "detect"}, &stdout, &stderr); code == 0 {
		t.Fatal("-only detect exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown experiment printed to stdout: %s", stdout.String())
	}
	for _, name := range experiments.SectionNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error does not list %q: %s", name, stderr.String())
		}
	}
}

func TestUsageIsGeneratedFromTheRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	names := experiments.SectionNames()
	if !strings.Contains(stderr.String(), strings.Join(names, ", ")) {
		t.Errorf("-only usage does not carry the registry's name list:\n%s", stderr.String())
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("section name %q is declared twice", name)
		}
		seen[name] = true
	}
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Errorf("an unknown flag exited %d, want 2", code)
	}
}

// -parallel 0 is a usage error, not a request silently clamped to one worker.
func TestParallelZeroExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-parallel", "0", "-only", "fig2"}, &stdout, &stderr); code != 2 {
		t.Errorf("-parallel 0 exited %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "-parallel must be at least 1") {
		t.Errorf("-parallel 0 printed %q to stdout and %q to stderr", stdout.String(), stderr.String())
	}
}

// The exports derive from the same reports: one CSV per figure block of
// the report sections (11) and an HTML report with one chart per figure
// block plus the traced run's Gantt chart (12 <svg). The CSV files' bytes
// are pinned by one sha256 over each file's name, length and bytes in
// name order.
func TestExportsWriteEveryFigure(t *testing.T) {
	dir := t.TempDir()
	csvDir, html := filepath.Join(dir, "csv"), filepath.Join(dir, "report.html")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-csv", csvDir, "-html", html}, &stdout, &stderr); code != 0 {
		t.Fatalf("-csv -html exited %d: %s", code, stderr.String())
	}
	files, err := os.ReadDir(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 11 {
		t.Errorf("-csv wrote %d files, want 11", len(files))
	}
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(csvDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f.Name(), len(data))
		h.Write(data)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "39c67462ac3aa5edac5e1340dcecc703a31ebef5fe880c0eadce17937d5aa7e2"; got != want {
		t.Errorf("CSV digest %s, want %s", got, want)
	}
	doc, err := os.ReadFile(html)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(doc), "<svg"); n != 12 {
		t.Errorf("-html wrote %d <svg, want 12", n)
	}
}
