package clusterd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/cluster"
	"datanet/internal/obs"
	"datanet/internal/trace"
)

// promSamples parses exposition text into sample → value, skipping
// comments and any family whose name starts with a skipped prefix.
func promSamples(t *testing.T, text []byte, skipPrefixes ...string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		key, val := line[:i], line[i+1:]
		skip := false
		for _, p := range skipPrefixes {
			if strings.HasPrefix(key, p) {
				skip = true
			}
		}
		if skip {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[key] = v
	}
	return out
}

// The /admin/metrics rollup must equal what a scraper computes by
// summing every node's /metrics: same sample set, counters summing
// exactly, histogram sums to float tolerance. Runtime gauges stay
// per-node; datanet_cluster_ families exist only in the rollup.
func TestAdminMetricsRollupEqualsNodeSum(t *testing.T) {
	cfg := testConfig(4, 2)
	c, srvs := httpCluster(t, cfg, 3)
	names := testNames(6)
	seed(t, c, names)

	get := func(id cluster.NodeID, path string) []byte {
		resp, err := http.Get(srvs[id].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}

	// Traffic: every node sees every array — leaders answer, non-leaders
	// refuse; both paths move counters somewhere.
	for _, id := range c.MemberIDs() {
		for _, name := range names {
			get(id, "/v1/arrays/"+name+"/estimate?sub="+name)
			get(id, "/v1/arrays/"+name+"/top?n=2")
		}
		get(id, "/healthz")
	}

	want := map[string]float64{}
	for _, id := range c.MemberIDs() {
		text := get(id, "/metrics")
		if err := obs.ValidatePromText(text); err != nil {
			t.Fatalf("node %d /metrics invalid: %v", id, err)
		}
		for k, v := range promSamples(t, text, "datanet_go_") {
			want[k] += v
		}
	}

	rollup := get(0, "/admin/metrics")
	if err := obs.ValidatePromText(rollup); err != nil {
		t.Fatalf("/admin/metrics invalid: %v", err)
	}
	if !strings.Contains(string(rollup), "datanet_cluster_topology_gen") ||
		!strings.Contains(string(rollup), `datanet_cluster_shard_primary{shard="0"}`) {
		t.Errorf("rollup missing cluster families:\n%s", rollup)
	}
	got := promSamples(t, rollup, "datanet_cluster_")

	if len(got) != len(want) {
		t.Errorf("rollup has %d samples, node sum has %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("rollup missing sample %s", k)
			continue
		}
		if strings.Contains(k, "_sum") {
			if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				t.Errorf("%s: rollup %v, node sum %v", k, g, w)
			}
		} else if g != w {
			t.Errorf("%s: rollup %v, node sum %v", k, g, w)
		}
	}
}

// Requests through a cluster node must leave spans in its ring with the
// cluster annotations (node, shard, request ID propagation, staleness
// default off) visible via /admin/trace.
func TestHandlerTraceSpans(t *testing.T) {
	cfg := testConfig(2, 1)
	c, srvs := httpCluster(t, cfg, 3)
	names := testNames(2)
	seed(t, c, names)
	name := names[0]
	si := ShardOf(name, cfg.Shards)
	primary := cluster.NodeID(c.Topology().Map[si].Primary)

	req, _ := http.NewRequest("GET", srvs[primary].URL+"/v1/arrays/"+name+"/estimate?sub="+name, nil)
	req.Header.Set(obs.RequestIDHeader, "trace-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "trace-test-1" {
		t.Errorf("request id not echoed: %q", got)
	}

	resp, err = http.Get(srvs[primary].URL + "/admin/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var found *trace.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp trace.Event
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Request == nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if sp.Request.ID == "trace-test-1" {
			found = &sp
		}
	}
	if found == nil {
		t.Fatal("traced request not in span ring")
	}
	if q := found.Request; found.Type != trace.EvRequest || found.Node != int(primary) || q.Shard != si ||
		q.Status != 200 || found.Detail != "estimate" || q.Stale {
		t.Errorf("span annotations wrong: %+v %+v", found, q)
	}
}
