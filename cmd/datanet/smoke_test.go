package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"datanet/internal/clusterd"
	"datanet/internal/gen"
	"datanet/internal/obs"
	"datanet/internal/trace"
)

// smokeData writes the dataset `datagen -records 20000 -movies 60`
// writes (cmd/datagen pins its digest).
func smokeData(t *testing.T) string {
	return writeRecords(t, gen.Kind("movies").Generate(20000, 60, 365, 42))
}

// startServer runs serve or serveCluster with args on a free port and
// returns the (seed node's) address. The server shuts down, and must shut
// down cleanly, when the test ends.
func startServer(t *testing.T, run func(context.Context, *serveFlags, func(string)) error, args ...string) string {
	t.Helper()
	f := serveArgs(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- run(ctx, f, func(a string) { addrCh <- a }) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-serveErr:
			if err != nil {
				t.Errorf("server shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	select {
	case addr := <-addrCh:
		return addr
	case err := <-serveErr:
		serveErr <- err
		t.Fatalf("server failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return ""
}

// smokeClient waits out a one-second CPU profile.
var smokeClient = &http.Client{Timeout: 10 * time.Second}

// fetch GETs url and returns its 200 body.
func fetch(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := smokeClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// hasLine reports whether text holds a line starting with prefix.
func hasLine(text []byte, prefix string) bool {
	return slices.ContainsFunc(strings.Split(string(text), "\n"), func(l string) bool {
		return strings.HasPrefix(l, prefix)
	})
}

// spans parses a /admin/trace JSONL body.
func spans(t *testing.T, body []byte) []trace.Event {
	t.Helper()
	var evs []trace.Event
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// loadgen400 runs the smoke's load against addr and returns its output.
func loadgen400(t *testing.T, addr string, extra ...string) string {
	t.Helper()
	buf := captureStdout(t)
	if err := runLoadgen(append([]string{"-addr", addr, "-clients", "4", "-requests", "400", "-seed", "7"}, extra...)); err != nil {
		t.Fatalf("loadgen: %v\n%s", err, buf)
	}
	return buf.String()
}

// The serving plane end to end, on the smoke dataset's meta-data as
// `datanet build` lays it out by default. The cluster leg: a 3-node,
// 2-replica cluster with pprof, driven by loadgen under a CPU profile,
// answers every observability surface; an append sent to every node is
// accepted by the shard's primary alone. The single-process leg serves
// the same load with the same seed-pure line and spans every request
// without a node.
func TestServeSmoke(t *testing.T) {
	captureStdout(t)
	meta := filepath.Join(t.TempDir(), "smoke.em")
	if err := runBuild([]string{"-data", smokeData(t), "-meta", meta}); err != nil {
		t.Fatal(err)
	}
	var clusterLine string
	t.Run("cluster", func(t *testing.T) {
		addr := startServer(t, serveCluster, "-meta", "reviews="+meta, "-cluster", "3", "-replicas", "2", "-pprof")
		base := "http://" + addr
		profile := filepath.Join(t.TempDir(), "loadgen.pprof")
		out := loadgen400(t, addr, "-profile", "cpu="+profile)
		clusterLine, _, _ = strings.Cut(out, "\n")
		if !strings.Contains(out, "loadgen: endpoint estimate:") {
			t.Errorf("no estimate endpoint line:\n%s", out)
		}

		metrics := fetch(t, base+"/metrics")
		if !hasLine(metrics, "# TYPE datanet_http_requests_total counter") ||
			!hasLine(metrics, `datanet_http_request_duration_seconds_bucket{endpoint="estimate",le="+Inf"}`) {
			t.Errorf("/metrics lacks the request counter or the estimate histogram:\n%s", metrics)
		}
		rollup := fetch(t, base+"/admin/metrics")
		if !hasLine(rollup, `datanet_cluster_shard_primary{shard="0"}`) {
			t.Errorf("/admin/metrics lacks shard 0's primary:\n%s", rollup)
		}
		for name, body := range map[string][]byte{"/metrics": metrics, "/admin/metrics": rollup} {
			if err := obs.ValidatePromText(body); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}

		// Spans: every line on every node is a request with an ID, and the
		// node leading the array's shard holds loadgen's IDs.
		var tv clusterd.TopologyView
		if err := getJSON(smokeClient, base+"/admin/topology", &tv); err != nil {
			t.Fatal(err)
		}
		seed := spans(t, fetch(t, base+"/admin/trace"))
		if len(seed) == 0 {
			t.Error("the seed node recorded no span")
		}
		all, lg7 := seed, 0
		var nodes []string
		for _, nv := range tv.Nodes {
			if nv.Addr != "" {
				nodes = append(nodes, "http://"+nv.Addr)
				all = append(all, spans(t, fetch(t, nodes[len(nodes)-1]+"/admin/trace"))...)
			}
		}
		for _, ev := range all {
			if ev.Type != trace.EvRequest || ev.Request == nil || ev.Request.ID == "" {
				t.Fatalf("non-request trace line: %+v", ev)
			}
			if strings.HasPrefix(ev.Request.ID, "lg7-") {
				lg7++
			}
		}
		if lg7 == 0 {
			t.Error("no node holds a loadgen (lg7-) span")
		}
		var chrome trace.ChromeTraceFile
		if err := json.Unmarshal(fetch(t, base+"/admin/trace?format=chrome"), &chrome); err != nil {
			t.Fatal(err)
		}
		var xs int
		for _, e := range chrome.TraceEvents {
			if e.Ph == "X" {
				xs++
				if e.Cat != "request" {
					t.Errorf("chrome X event of category %q: %+v", e.Cat, e)
				}
			}
		}
		if len(chrome.TraceEvents) == 0 || xs == 0 {
			t.Errorf("chrome trace has %d events, %d of them X", len(chrome.TraceEvents), xs)
		}

		// Write accounting: one acceptance, two leadership refusals, all
		// three counted under the append endpoint of the rollup.
		blob, err := os.ReadFile(meta)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, n := range nodes {
			resp, err := smokeClient.Post(n+"/v1/arrays/reviews/append", "application/octet-stream", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				accepted++
			}
		}
		if len(nodes) != 3 || accepted != 1 {
			t.Errorf("%d of %d nodes accepted the append, want 1 of 3", accepted, len(nodes))
		}
		writes := strings.Split(string(fetch(t, base+"/admin/metrics")), "\n")
		for _, want := range []string{`datanet_http_requests_total{endpoint="append"} 3`,
			`datanet_http_request_errors_total{endpoint="append"} 2`} {
			if !slices.Contains(writes, want) {
				t.Errorf("the rollup has no line %s:\n%s", want, strings.Join(writes, "\n"))
			}
		}

		// One CPU profile at a time: loadgen's has stopped by now.
		if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
			t.Errorf("loadgen profile %s is empty or missing: %v", profile, err)
		}
		if cpu := fetch(t, base+"/debug/pprof/profile?seconds=1"); len(cpu) == 0 {
			t.Error("/debug/pprof/profile answered an empty profile")
		}
	})

	t.Run("single", func(t *testing.T) {
		addr := startServer(t, serve, "-meta", "reviews="+meta)
		base := "http://" + addr
		out := loadgen400(t, addr)
		if line, _, _ := strings.Cut(out, "\n"); clusterLine == "" || line != clusterLine {
			t.Errorf("single-process loadgen line %q, the cluster's is %q", line, clusterLine)
		}
		ids := map[string]bool{}
		other := map[string]bool{"/readyz": true, "/admin/topology": true, "/v1/arrays": true, "/v1/arrays/reviews/top": true}
		evs := spans(t, fetch(t, base+"/admin/trace"))
		for _, ev := range evs {
			if ev.Type != trace.EvRequest || ev.Node != -1 || ev.Request == nil {
				t.Fatalf("span is not a node-less request: %+v", ev)
			}
			if strings.HasPrefix(ev.Request.ID, "lg7-") {
				ids[ev.Request.ID] = true
			} else if !other[ev.Request.Path] {
				t.Errorf("span of path %q under ID %q", ev.Request.Path, ev.Request.ID)
			}
		}
		if len(evs) == 0 || len(ids) != 400 {
			t.Errorf("%d spans, %d distinct lg7- IDs, want 400", len(evs), len(ids))
		}
		metrics := fetch(t, base+"/admin/metrics")
		if !hasLine(metrics, "# TYPE datanet_http_requests_total counter") ||
			!hasLine(metrics, `datanet_http_requests_total{endpoint="estimate"} `) {
			t.Errorf("/admin/metrics lacks the request counter or estimate requests:\n%s", metrics)
		}
	})
}

// A faulted, mitigated, skew-partitioned run writes both exports, and the
// chaos corpus's heartbeat/coded/range arm runs verbatim as a line of
// analyze flags and reports all three seams. (A removed spelling and a
// negative heartbeat duration are usage errors:
// TestRunAnalyzeRejectsPolicyNames.)
func TestAnalyzeSmoke(t *testing.T) {
	data := smokeData(t)
	dir := t.TempDir()
	chrome, doc := filepath.Join(dir, "run.json"), filepath.Join(dir, "doc.json")
	captureStdout(t)
	if err := runAnalyze([]string{"-data", data, "-sub", gen.MovieID(0), "-crash", "1@0.5:2", "-slow", "3x0.5",
		"-mitigate", "speculative:0.75", "-partition", "skew", "-out", "chrome=" + chrome, "-out", "json=" + doc}); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	var d struct {
		Result json.RawMessage `json:"result"`
	}
	for path, into := range map[string]any{chrome: &file, doc: &d} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if len(file.TraceEvents) == 0 {
		t.Error("empty chrome trace")
	}
	if r := string(d.Result); r == "" || r == "null" || r == "{}" {
		t.Errorf("json document has result %q", r)
	}

	buf := captureStdout(t)
	line := "-crash 1@0.5 -detect heartbeat -hb-interval 0.02 -mitigate coded -partition range"
	if err := runAnalyze(append([]string{"-data", data, "-sub", gen.MovieID(0)}, strings.Fields(line)...)); err != nil {
		t.Fatal(err)
	}
	for _, seam := range []string{"  failure detection: 1 responses", "  coded execution: ", "  partitioning: range over "} {
		if !hasLine(buf.Bytes(), seam) {
			t.Errorf("analyze %s: no %q line:\n%s", line, seam, buf)
		}
	}
}
