package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"datanet/internal/clusterd"
)

// TestRunChaosClusterSmoke drives the chaos subcommand in cluster mode:
// a small seeded campaign must pass every invariant and print its census.
func TestRunChaosClusterSmoke(t *testing.T) {
	buf := &bytes.Buffer{}
	stdout = buf
	defer func() { stdout = os.Stdout }()
	if err := runChaos([]string{"-cluster", "4", "-replicas", "2", "-runs", "20", "-seed", "3"}); err != nil {
		t.Fatalf("cluster chaos: %v\n%s", err, buf)
	}
	out := buf.String()
	if !strings.Contains(out, "20 cluster runs (4 nodes, 4 shards, 2 replicas)") ||
		!strings.Contains(out, ": 0 violations") {
		t.Fatalf("unexpected chaos output: %s", out)
	}
}

// TestServeClusterLoadgenSmoke boots a 3-node, 2-shard cluster on random
// ports and drives the load generator at it twice with the same seed: the
// router must discover the topology, shard-route every request, and
// produce the same deterministic summary line both times.
func TestServeClusterLoadgenSmoke(t *testing.T) {
	meta := writeEncodedMeta(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serveOut := &bytes.Buffer{}
	stdout = serveOut
	addrCh := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serveCluster(ctx, serveArgs(t, "-addr", "127.0.0.1:0", "-meta", "reviews="+meta, "-cache", "64",
			"-cluster", "3", "-replicas", "1", "-shards", "2"), func(a string) { addrCh <- a })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-serveErr:
		t.Fatalf("serveCluster failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("serveCluster never became ready")
	}

	// The admin plane answers on the seed node with the full shard map.
	var tv clusterd.TopologyView
	if err := getJSON(&http.Client{Timeout: 5 * time.Second}, "http://"+addr+"/admin/topology", &tv); err != nil {
		t.Fatalf("admin/topology: %v", err)
	}
	if tv.Shards != 2 || len(tv.Nodes) != 3 {
		t.Fatalf("topology %+v, want 2 shards over 3 nodes", tv)
	}
	for _, sv := range tv.Map {
		if sv.Primary < 0 {
			t.Fatalf("shard %d has no primary at boot", sv.Shard)
		}
	}

	runOnce := func(seed int64) string {
		buf := &bytes.Buffer{}
		stdout = buf
		if err := runLoadgen([]string{"-addr", addr, "-clients", "4", "-requests", "80",
			"-seed", fmt.Sprint(seed), "-plan-nodes", "4"}); err != nil {
			t.Fatalf("loadgen: %v\n%s", err, buf)
		}
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("loadgen printed %d lines, want summary + wall-clock + per-endpoint:\n%s", len(lines), buf)
		}
		return lines[0]
	}
	first := runOnce(7)
	second := runOnce(7)
	if first != second {
		t.Fatalf("cluster-mode summary line not reproducible for fixed seed:\n  %s\n  %s", first, second)
	}
	if !strings.Contains(first, `80 requests to "reviews" (4 clients, seed 7)`) ||
		!strings.Contains(first, "0 transport-errors") {
		t.Fatalf("unexpected summary line: %q", first)
	}

	stdout = os.Stdout
	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serveCluster shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveCluster did not shut down")
	}
	out := serveOut.String()
	if !strings.Contains(out, "serve: cluster of 3 nodes, 2 shards, 1 replicas per shard") ||
		!strings.Contains(out, `serve: loaded "reviews"`) ||
		strings.Count(out, "listening on http://") != 3 {
		t.Fatalf("unexpected serveCluster output:\n%s", out)
	}
}
