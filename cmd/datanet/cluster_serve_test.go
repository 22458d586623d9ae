package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"datanet/internal/clusterd"
)

// TestServeClusterLoadgenSmoke boots a 3-node, 2-shard cluster on random
// ports and drives the load generator at it twice with the same seed: the
// router must discover the topology, shard-route every request, and
// produce the same deterministic summary line both times. The cluster
// shuts down cleanly when the test ends.
func TestServeClusterLoadgenSmoke(t *testing.T) {
	serveOut := captureStdout(t)
	addr := startServer(t, serveCluster, "-meta", "reviews="+writeEncodedMeta(t), "-cache", "64",
		"-cluster", "3", "-replicas", "1", "-shards", "2")
	if out := serveOut.String(); !strings.Contains(out, "serve: cluster of 3 nodes, 2 shards, 1 replicas per shard") ||
		!strings.Contains(out, `serve: loaded "reviews"`) ||
		strings.Count(out, "listening on http://") != 3 {
		t.Fatalf("unexpected serveCluster output:\n%s", out)
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
		buf := captureStdout(t)
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
}
