package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/records"
	"datanet/internal/server"
)

// compareGolden checks output against testdata/<name>; -update (shared
// with json_test.go) rewrites.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden copy (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The help text of both new subcommands is pinned: flag renames, default
// changes, and usage-string edits must be deliberate.
func TestServeHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	f := newServeFlags()
	f.fs.SetOutput(&buf)
	f.fs.Usage()
	compareGolden(t, "serve_help.golden", buf.Bytes())
}

func TestLoadgenHelpGolden(t *testing.T) {
	var buf bytes.Buffer
	f := newLoadgenFlags()
	f.fs.SetOutput(&buf)
	f.fs.Usage()
	compareGolden(t, "loadgen_help.golden", buf.Bytes())
}

// writeEncodedMeta builds a small ElasticMap array from the generator
// corpus and writes its encoding to a temp file, as `datanet build -meta`
// would.
func writeEncodedMeta(t *testing.T) string {
	t.Helper()
	recs := gen.Movies(gen.MovieConfig{Movies: 40, Reviews: 2000, Seed: 11})
	var blocks [][]records.Record
	for i := 0; i < len(recs); i += 200 {
		end := i + 200
		if end > len(recs) {
			end = len(recs)
		}
		blocks = append(blocks, recs[i:end])
	}
	blob, err := elasticmap.Encode(elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reviews.em")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeLoadgenSmoke boots a real server on a random port and runs the
// load generator against it twice with the same seed: the deterministic
// summary line (counts + order-independent digest) must be identical, and
// the second output line must report wall-clock measurements. The server
// shuts down cleanly when the test ends.
func TestServeLoadgenSmoke(t *testing.T) {
	serveOut := captureStdout(t)
	addr := startServer(t, serve, "-meta", "reviews="+writeEncodedMeta(t), "-cache", "64")
	if out := serveOut.String(); !strings.Contains(out, "serve: listening on http://") ||
		!strings.Contains(out, `serve: loaded "reviews"`) {
		t.Fatalf("unexpected serve output:\n%s", out)
	}

	runOnce := func(seed int64) string {
		buf := captureStdout(t)
		if err := runLoadgen([]string{"-addr", addr, "-clients", "4", "-requests", "80",
			"-seed", fmt.Sprint(seed), "-plan-nodes", "4"}); err != nil {
			t.Fatalf("loadgen: %v\n%s", err, buf)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("loadgen printed %d lines, want summary + wall-clock + per-endpoint:\n%s", len(lines), buf)
		}
		if !strings.Contains(lines[1], "req/s") || !strings.Contains(lines[1], "latency ms") {
			t.Fatalf("second line is not the wall-clock report: %q", lines[1])
		}
		var endpoints int
		for _, l := range lines[2:] {
			if strings.HasPrefix(l, "loadgen: endpoint ") && strings.Contains(l, "p90") {
				endpoints++
			}
		}
		if endpoints == 0 {
			t.Fatalf("no per-endpoint latency lines:\n%s", buf)
		}
		return lines[0]
	}
	first := runOnce(7)
	second := runOnce(7)
	if first != second {
		t.Fatalf("summary line not reproducible for fixed seed:\n  %s\n  %s", first, second)
	}
	if !strings.Contains(first, `80 requests to "reviews" (4 clients, seed 7)`) ||
		!strings.Contains(first, "0 transport-errors") || !strings.Contains(first, "digest ") {
		t.Fatalf("unexpected summary line: %q", first)
	}
}

// TestLoadgenLeavesNoOpenConnections pins the fix for the shutdown flake:
// loadgen must close its keep-alive connections before returning, or a
// server's Shutdown waits out its deadline on the ones it never saw a
// request on. The server counts connections through ConnState.
func TestLoadgenLeavesNoOpenConnections(t *testing.T) {
	blob, err := os.ReadFile(writeEncodedMeta(t))
	if err != nil {
		t.Fatal(err)
	}
	arr, err := elasticmap.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	store := server.NewStore(64)
	store.Put("reviews", arr)

	var mu sync.Mutex
	open, opened := map[net.Conn]bool{}, 0
	changed := make(chan struct{}, 1)
	ts := httptest.NewUnstartedServer(server.New(store))
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		switch st {
		case http.StateNew:
			open[c] = true
			opened++
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
		mu.Unlock()
		select {
		case changed <- struct{}{}:
		default:
		}
	}
	ts.Start()
	defer ts.Close()

	buf := &bytes.Buffer{}
	stdout = buf
	defer func() { stdout = os.Stdout }()
	if err := runLoadgen([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "-clients", "4",
		"-requests", "80", "-seed", "7", "-plan-nodes", "4"}); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, buf)
	}
	// The server learns of a closed connection when its read returns, a
	// moment after the client closed it: wait for the count, not a sleep.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n, total := len(open), opened
		mu.Unlock()
		if total == 0 {
			t.Fatal("the server saw no connection at all")
		}
		if n == 0 {
			return
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatalf("%d of %d connections still open after runLoadgen returned", n, total)
		}
	}
}

// serveArgs parses serve flags as the command does.
func serveArgs(t *testing.T, args ...string) *serveFlags {
	t.Helper()
	f := newServeFlags()
	if err := f.fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestServeBadMeta covers the load-time failure paths: malformed specs,
// missing files, and corrupt encodings are all refused as -meta is parsed.
func TestServeBadMeta(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "bad.em")
	if err := os.WriteFile(corrupt, []byte("not an elasticmap"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"noequals", "=path", "name=",
		"x=" + filepath.Join(t.TempDir(), "nope.em"), "x=" + corrupt} {
		if err := newServeFlags().fs.Set("meta", spec); err == nil {
			t.Errorf("serve accepted bad -meta %q", spec)
		}
	}
}
