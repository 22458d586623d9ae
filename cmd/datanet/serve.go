package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	nhpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	rtpprof "runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"datanet/internal/elasticmap"
	"datanet/internal/hashutil"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/server"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// serveFlags holds the serve flag set; split out so tests can golden the
// help text without the ExitOnError parse path terminating the process.
type serveFlags struct {
	fs       *flag.FlagSet
	addr     *string
	cache    *int
	cluster  *int
	logLevel *string
	pprof    *bool
	replicas *int
	shards   *int
	metas    multiFlag
}

func newServeFlags() *serveFlags {
	f := &serveFlags{fs: flag.NewFlagSet("serve", flag.ExitOnError)}
	f.addr = f.fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	f.cache = f.fs.Int("cache", server.DefaultCacheSize, "per-epoch result-cache entries per array")
	f.cluster = f.fs.Int("cluster", 0, "serve as an N-node sharded cluster instead of a single process (0 = single)")
	f.logLevel = f.fs.String("log-level", "off", "structured request/event log to stderr: off | debug | info | warn | error")
	f.pprof = f.fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on every node")
	f.replicas = f.fs.Int("replicas", 1, "followers per shard in cluster mode")
	f.shards = f.fs.Int("shards", 4, "catalog shards in cluster mode")
	f.fs.Var(&f.metas, "meta", "NAME=FILE: serve the encoded ElasticMap array FILE as NAME (repeatable)")
	return f
}

// obsOptions carries the serving observability knobs. The zero value —
// no logger, no pprof — is the deterministic default the loadgen/chaos
// goldens rely on; tracing itself is always on (bounded ring, wall-clock
// only, invisible to response bodies).
type obsOptions struct {
	logger *slog.Logger
	pprof  bool
}

// runServe loads encoded ElasticMap arrays and serves the metadata query
// API until interrupted.
func runServe(args []string) error {
	f := newServeFlags()
	f.fs.Parse(args)
	if len(f.metas) == 0 {
		return fmt.Errorf("at least one -meta NAME=FILE is required")
	}
	logger, err := obs.NewLogger(*f.logLevel, os.Stderr)
	if err != nil {
		return err
	}
	o := obsOptions{logger: logger, pprof: *f.pprof}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *f.cluster > 0 {
		return serveCluster(ctx, *f.addr, f.metas, *f.cache, *f.cluster, *f.replicas, *f.shards, nil, o)
	}
	return serve(ctx, *f.addr, f.metas, *f.cache, nil, o)
}

// mountPprof exposes the standard net/http/pprof handlers on mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
}

// serve is the signal-free core of runServe: it blocks until ctx is
// canceled or the listener fails. Tests pass a cancelable ctx and a ready
// hook to learn the bound address when -addr ends in :0.
func serve(ctx context.Context, addr string, metas []string, cacheSize int, ready func(addr string), o obsOptions) error {
	store := server.NewStore(cacheSize)
	for _, spec := range metas {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("bad -meta %q (want NAME=FILE)", spec)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		arr, err := elasticmap.Decode(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sn := store.Put(name, arr)
		fmt.Fprintf(stdout, "serve: loaded %q from %s (%d blocks, %d raw bytes, epoch %d)\n",
			name, path, arr.Len(), arr.RawBytes(), sn.Epoch)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve: listening on http://%s (%d arrays)\n", ln.Addr(), store.Len())
	if ready != nil {
		ready(ln.Addr().String())
	}
	// Observability plane: every request flows through the tracing
	// middleware into the API server; the admin routes (span dumps, the
	// Prometheus view without runtime gauges, optional pprof) bypass it so
	// scraping never perturbs the numbers being scraped.
	api := server.New(store)
	tracer := obs.NewTracer(obs.DefaultRingSize, obs.DefaultSlowK)
	mux := http.NewServeMux()
	mux.Handle("/admin/trace", obs.TraceHandler(tracer))
	mux.HandleFunc("/admin/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.Write(server.RenderProm(api.DumpMetrics(), false))
	})
	if o.pprof {
		mountPprof(mux)
	}
	mux.Handle("/", obs.Middleware(tracer, -1, o.logger, api))
	srv := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shctx)
	case err := <-errc:
		return err
	}
}

// genRequest is one pre-generated loadgen request. The whole request list
// is derived from -seed before any client starts, so the mix — and, since
// the API is read-only and snapshot-consistent, every response — is a pure
// function of the seed. kind labels the endpoint for the per-endpoint
// latency report; id is the request ID the router stamps on the wire.
type genRequest struct {
	method string
	path   string
	body   []byte
	kind   string
	id     string
}

// loadgenKinds is the fixed reporting order of the per-endpoint lines.
var loadgenKinds = []string{"estimate", "distribution", "top", "info", "plan"}

// loadgenFlags holds the loadgen flag set (see serveFlags).
type loadgenFlags struct {
	fs        *flag.FlagSet
	addr      *string
	array     *string
	clients   *int
	profile   *string
	requests  *int
	seed      *int64
	planNodes *int
}

func newLoadgenFlags() *loadgenFlags {
	f := &loadgenFlags{fs: flag.NewFlagSet("loadgen", flag.ExitOnError)}
	f.addr = f.fs.String("addr", "127.0.0.1:8080", "server address host:port")
	f.array = f.fs.String("array", "", "array to query (default: first name in the server catalog)")
	f.clients = f.fs.Int("clients", 8, "concurrent client goroutines")
	f.profile = f.fs.String("profile", "", "cpu=FILE or heap=FILE: write a pprof profile of the loadgen run")
	f.requests = f.fs.Int("requests", 1000, "total requests across all clients")
	f.seed = f.fs.Int64("seed", 1, "query-mix seed; the summary line is a pure function of it")
	f.planNodes = f.fs.Int("plan-nodes", 8, "cluster size used by generated plan requests")
	return f
}

// startProfile interprets -profile: "cpu=FILE" profiles the whole run,
// "heap=FILE" snapshots the heap after it. stop runs once the run ends.
func startProfile(spec string) (stop func() error, err error) {
	mode, path, ok := strings.Cut(spec, "=")
	if !ok || path == "" {
		return nil, fmt.Errorf("bad -profile %q (want cpu=FILE or heap=FILE)", spec)
	}
	switch mode {
	case "cpu":
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := rtpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		return func() error {
			rtpprof.StopCPUProfile()
			return f.Close()
		}, nil
	case "heap":
		return func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := rtpprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}, nil
	}
	return nil, fmt.Errorf("unknown -profile mode %q (want cpu or heap)", mode)
}

// runLoadgen fires a seeded query mix at a running serve instance from N
// concurrent clients and reports a deterministic summary line (counts plus
// an order-independent digest of every request/response pair) followed by
// wall-clock throughput and a latency histogram.
func runLoadgen(args []string) error {
	f := newLoadgenFlags()
	f.fs.Parse(args)
	if *f.clients < 1 || *f.requests < 1 {
		return fmt.Errorf("-clients and -requests must be at least 1")
	}
	clients, requests, seed, planNodes := f.clients, f.requests, f.seed, f.planNodes
	base := "http://" + *f.addr
	// One transport for every loadgen client, its idle connections closed
	// on the way out: a keep-alive connection dialed but never used stays in
	// StateNew on the server, and http.Server.Shutdown waits on those.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	// The router probes /admin/topology: against `serve -cluster` it
	// shard-routes every request to the array's primary and retries the
	// typed failover 503s; against a single server it is a passthrough.
	router := newLoadgenRouter(client, base)

	name := *f.array
	if name == "" {
		var names []string
		if router.Clustered() {
			// Per-node listings only cover led shards; union them.
			var err error
			if names, err = clusterCatalog(client, base); err != nil {
				return fmt.Errorf("listing cluster arrays: %w", err)
			}
		} else {
			var catalog struct {
				Arrays []struct {
					Name string `json:"name"`
				} `json:"arrays"`
			}
			if err := getJSON(client, base+"/v1/arrays", &catalog); err != nil {
				return fmt.Errorf("listing arrays: %w", err)
			}
			for _, a := range catalog.Arrays {
				names = append(names, a.Name)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("server at %s has no arrays", *f.addr)
		}
		name = names[0]
	}
	// Seed the sub-dataset pool from the server's own index so the mix
	// queries real keys; unknown keys are mixed in deliberately below.
	var top struct {
		Entries []struct {
			Sub string `json:"sub"`
		} `json:"entries"`
	}
	if err := getJSON(client, router.baseFor(name)+"/v1/arrays/"+name+"/top?n=64", &top); err != nil {
		return fmt.Errorf("fetching sub-dataset pool: %w", err)
	}
	subs := make([]string, 0, len(top.Entries))
	for _, e := range top.Entries {
		subs = append(subs, e.Sub)
	}
	if len(subs) == 0 {
		subs = []string{"loadgen-empty-pool"}
	}

	reqs := generateMix(rand.New(rand.NewSource(*seed)), name, subs, *requests, *planNodes)
	// Request IDs propagate end to end (X-Datanet-Request-Id): a span in
	// any node's /admin/trace names the loadgen request that caused it.
	for i := range reqs {
		reqs[i].id = fmt.Sprintf("lg%d-%04d", *seed, i)
	}

	var stopProfile func() error
	if *f.profile != "" {
		var err error
		if stopProfile, err = startProfile(*f.profile); err != nil {
			return err
		}
	}

	type clientStats struct {
		digest     uint64
		ok         int
		httpErr    int
		transport  int
		retries    int
		lat        *metrics.Histogram
		perKind    map[string]*metrics.Histogram
		retryKinds map[string]int
	}
	stats := make([]clientStats, *clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.lat = metrics.NewHistogram()
			st.perKind = map[string]*metrics.Histogram{}
			st.retryKinds = map[string]int{}
			for i := c; i < len(reqs); i += *clients {
				q := reqs[i]
				t0 := time.Now()
				status, body, retryKinds, err := router.do(q, name)
				if err != nil {
					st.transport++
					continue
				}
				ms := float64(time.Since(t0).Microseconds()) / 1e3
				st.lat.Observe(ms)
				kh := st.perKind[q.kind]
				if kh == nil {
					kh = metrics.NewHistogram()
					st.perKind[q.kind] = kh
				}
				kh.Observe(ms)
				st.retries += len(retryKinds)
				for _, k := range retryKinds {
					st.retryKinds[k]++
				}
				if status < 300 {
					st.ok++
				} else {
					st.httpErr++
				}
				// Commutative digest: summing per-exchange FNV-64a hashes
				// makes the result independent of client interleaving. Each
				// request is hashed once, with its final (post-retry) answer.
				h := hashutil.New()
				fmt.Fprintf(h, "%s %s\x00%d\x00", q.method, q.path, status)
				h.Write(q.body)
				h.Write([]byte{0})
				h.Write(body)
				st.digest += h.Sum64()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return err
		}
	}

	var digest uint64
	var ok, httpErr, transport, retried int
	lat := metrics.NewHistogram()
	perKind := map[string]*metrics.Histogram{}
	retryKinds := map[string]int{}
	for i := range stats {
		digest += stats[i].digest
		ok += stats[i].ok
		httpErr += stats[i].httpErr
		transport += stats[i].transport
		retried += stats[i].retries
		lat.Merge(stats[i].lat)
		for k, h := range stats[i].perKind {
			if perKind[k] == nil {
				perKind[k] = metrics.NewHistogram()
			}
			perKind[k].Merge(h)
		}
		for k, n := range stats[i].retryKinds {
			retryKinds[k] += n
		}
	}
	// Deterministic line first (compared across runs by tests), wall-clock
	// measurements second. Retries are wall-clock noise (failover windows),
	// so they live on the second line.
	fmt.Fprintf(stdout, "loadgen: %d requests to %q (%d clients, seed %d): %d ok, %d http-errors, %d transport-errors, digest %016x\n",
		len(reqs), name, *clients, *seed, ok, httpErr, transport, digest)
	fmt.Fprintf(stdout, "loadgen: wall %.2fs, %.0f req/s, %d retries; latency ms p50 %.3f p95 %.3f p99 %.3f max %.3f\n",
		wall.Seconds(), float64(len(reqs))/wall.Seconds(), retried,
		lat.Quantile(0.50), lat.Quantile(0.95), lat.Quantile(0.99), lat.Max())
	for _, k := range loadgenKinds {
		h := perKind[k]
		if h == nil || h.Count() == 0 {
			continue
		}
		fmt.Fprintf(stdout, "loadgen: endpoint %s: %d reqs; latency ms p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
			k, h.Count(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max())
	}
	if len(retryKinds) > 0 {
		kinds := make([]string, 0, len(retryKinds))
		for k := range retryKinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s=%d", k, retryKinds[k]))
		}
		fmt.Fprintf(stdout, "loadgen: retries by kind: %s\n", strings.Join(parts, " "))
	}
	if *f.profile != "" {
		mode, path, _ := strings.Cut(*f.profile, "=")
		fmt.Fprintf(stdout, "loadgen: %s profile written to %s\n", mode, path)
	}
	if transport > 0 {
		return fmt.Errorf("loadgen: %d transport errors", transport)
	}
	return nil
}

// generateMix pre-computes the request list: mostly estimates and
// distributions on real sub-datasets, some meta-only analytics, some full
// scheduling plans, and a sprinkle of unknown keys and malformed requests
// to keep the 4xx paths warm.
func generateMix(rng *rand.Rand, name string, subs []string, n, planNodes int) []genRequest {
	prefix := "/v1/arrays/" + name
	schedulers := []string{"datanet", "maxflow", "locality", "lpt"}
	reqs := make([]genRequest, 0, n)
	for i := 0; i < n; i++ {
		sub := subs[rng.Intn(len(subs))]
		switch p := rng.Intn(100); {
		case p < 35:
			reqs = append(reqs, genRequest{method: "GET", path: prefix + "/estimate?sub=" + sub, kind: "estimate"})
		case p < 60:
			reqs = append(reqs, genRequest{method: "GET", path: prefix + "/distribution?sub=" + sub, kind: "distribution"})
		case p < 72:
			reqs = append(reqs, genRequest{method: "GET", path: fmt.Sprintf("%s/top?n=%d", prefix, 1+rng.Intn(16)), kind: "top"})
		case p < 80:
			reqs = append(reqs, genRequest{method: "GET", path: prefix, kind: "info"})
		case p < 90:
			body, _ := json.Marshal(map[string]any{
				"sub":       sub,
				"nodes":     planNodes,
				"scheduler": schedulers[rng.Intn(len(schedulers))],
			})
			reqs = append(reqs, genRequest{method: "POST", path: prefix + "/plan", body: body, kind: "plan"})
		case p < 96:
			reqs = append(reqs, genRequest{method: "GET",
				path: fmt.Sprintf("%s/estimate?sub=loadgen-missing-%d", prefix, rng.Intn(1000)), kind: "estimate"})
		default:
			// Deliberately malformed: missing sub parameter → 400.
			reqs = append(reqs, genRequest{method: "GET", path: prefix + "/estimate", kind: "estimate"})
		}
	}
	return reqs
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, out)
}
