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
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"datanet/internal/hashutil"
	"datanet/internal/metrics"
	"datanet/internal/obs"
	"datanet/internal/server"
)

// serveFlags is the serve flag set, bound into the values the daemon runs
// with; split out so tests can golden the help text without the
// ExitOnError parse path terminating the process.
type serveFlags struct {
	fs                               *flag.FlagSet
	addr, logLevel                   string
	cache, cluster, replicas, shards int
	pprof                            bool
	metas                            server.ArrayFiles
	// logger is -log-level's logger; nil (off) is the deterministic
	// default the loadgen and chaos goldens rely on.
	logger *slog.Logger
}

func newServeFlags() *serveFlags {
	f := &serveFlags{fs: flag.NewFlagSet("serve", flag.ExitOnError)}
	f.fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	f.fs.IntVar(&f.cache, "cache", server.DefaultCacheSize, "per-epoch result-cache entries per array")
	f.fs.IntVar(&f.cluster, "cluster", 0, "serve as an N-node sharded cluster instead of a single process (0 = single)")
	f.fs.StringVar(&f.logLevel, "log-level", "off", "structured request/event log to stderr: off | debug | info | warn | error")
	f.fs.BoolVar(&f.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on every node")
	f.fs.IntVar(&f.replicas, "replicas", 1, "followers per shard in cluster mode")
	f.fs.IntVar(&f.shards, "shards", 4, "catalog shards in cluster mode")
	f.fs.Var(&f.metas, "meta", "NAME=FILE: serve the encoded ElasticMap array FILE as NAME (repeatable)")
	return f
}

// runServe loads encoded ElasticMap arrays and serves the metadata query
// API until interrupted. Tracing is always on (a bounded ring, wall-clock
// only, invisible to response bodies); logging and pprof are opt-in.
func runServe(args []string) error {
	f := newServeFlags()
	f.fs.Parse(args)
	if len(f.metas) == 0 {
		return fmt.Errorf("at least one -meta NAME=FILE is required")
	}
	var err error
	if f.logger, err = obs.NewLogger(f.logLevel, os.Stderr); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if f.cluster > 0 {
		return serveCluster(ctx, f, nil)
	}
	return serve(ctx, f, nil)
}

// withPprof serves h, with the standard net/http/pprof handlers beside it
// under /debug/pprof/ when on is set.
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", nhpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", nhpprof.Trace)
	mux.Handle("/", h)
	return mux
}

// serve is the signal-free core of runServe: it blocks until ctx is
// canceled or the listener fails. Tests pass a cancelable ctx and a ready
// hook to learn the bound address when -addr ends in :0.
func serve(ctx context.Context, f *serveFlags, ready func(addr string)) error {
	store := server.NewStore(f.cache)
	for _, m := range f.metas {
		sn := store.Put(m.Name, m.Arr)
		fmt.Fprintf(stdout, "serve: loaded %q from %s (%d blocks, %d raw bytes, epoch %d)\n",
			m.Name, m.Path, m.Arr.Len(), m.Arr.RawBytes(), sn.Epoch)
	}
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve: listening on http://%s (%d arrays)\n", ln.Addr(), store.Len())
	if ready != nil {
		ready(ln.Addr().String())
	}
	// The server spans every request; its admin routes (span dumps, the
	// Prometheus view without runtime gauges) and optional pprof are not
	// spanned, so scraping never perturbs the numbers being scraped.
	api := server.New(store)
	api.Logger = f.logger
	srv := &http.Server{Handler: withPprof(api, f.pprof)}
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

// loadgenFlags is the loadgen flag set (see serveFlags).
type loadgenFlags struct {
	fs                           *flag.FlagSet
	addr, array                  string
	clients, requests, planNodes int
	seed                         int64
	profile                      obs.Profile
}

func newLoadgenFlags() *loadgenFlags {
	f := &loadgenFlags{fs: flag.NewFlagSet("loadgen", flag.ExitOnError)}
	f.fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "server address host:port")
	f.fs.StringVar(&f.array, "array", "", "array to query (default: first name in the server catalog)")
	f.fs.IntVar(&f.clients, "clients", 8, "concurrent client goroutines")
	f.fs.Var(&f.profile, "profile", "cpu=FILE or heap=FILE: write a pprof profile of the loadgen run")
	f.fs.IntVar(&f.requests, "requests", 1000, "total requests across all clients")
	f.fs.Int64Var(&f.seed, "seed", 1, "query-mix seed; the summary line is a pure function of it")
	f.fs.IntVar(&f.planNodes, "plan-nodes", 8, "cluster size used by generated plan requests")
	return f
}

// runLoadgen fires a seeded query mix at a running serve instance from N
// concurrent clients and reports a deterministic summary line (counts plus
// an order-independent digest of every request/response pair) followed by
// wall-clock throughput and a latency histogram.
func runLoadgen(args []string) error {
	f := newLoadgenFlags()
	f.fs.Parse(args)
	if f.clients < 1 || f.requests < 1 {
		return fmt.Errorf("-clients and -requests must be at least 1")
	}
	base := "http://" + f.addr
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

	name := f.array
	if name == "" {
		names, err := router.listArrays()
		if err != nil {
			return fmt.Errorf("listing arrays: %w", err)
		}
		if len(names) == 0 {
			return fmt.Errorf("server at %s has no arrays", f.addr)
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

	reqs := generateMix(rand.New(rand.NewSource(f.seed)), name, subs, f.requests, f.planNodes)
	// Request IDs propagate end to end (X-Datanet-Request-Id): a span in
	// any node's /admin/trace names the loadgen request that caused it.
	for i := range reqs {
		reqs[i].id = fmt.Sprintf("lg%d-%04d", f.seed, i)
	}

	stopProfile, err := f.profile.Start()
	if err != nil {
		return err
	}

	// The clients share every tally: a digest and counts summed
	// atomically, retries under a lock (they are rare), and lock-free
	// latency histograms, one per request kind beside the total (the map
	// is read-only once filled).
	var digest atomic.Uint64
	var ok, httpErr, transport atomic.Int64
	var mu sync.Mutex
	retried, retryKinds := 0, map[string]int{}
	lat := new(metrics.Latency)
	perKind := make(map[string]*metrics.Latency, len(loadgenKinds))
	for _, k := range loadgenKinds {
		perKind[k] = new(metrics.Latency)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < f.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += f.clients {
				q := reqs[i]
				t0 := time.Now()
				status, body, kinds, err := router.do(q, name)
				if err != nil {
					transport.Add(1)
					continue
				}
				d := time.Since(t0).Seconds()
				lat.Observe(d)
				perKind[q.kind].Observe(d)
				if len(kinds) > 0 {
					mu.Lock()
					retried += len(kinds)
					for _, k := range kinds {
						retryKinds[k]++
					}
					mu.Unlock()
				}
				if status < 300 {
					ok.Add(1)
				} else {
					httpErr.Add(1)
				}
				// Commutative digest: summing per-exchange FNV-64a hashes
				// makes the result independent of client interleaving. Each
				// request is hashed once, with its final (post-retry) answer.
				h := hashutil.New()
				fmt.Fprintf(h, "%s %s\x00%d\x00", q.method, q.path, status)
				h.Write(q.body)
				h.Write([]byte{0})
				h.Write(body)
				digest.Add(h.Sum64())
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := stopProfile(); err != nil {
		return err
	}

	// Deterministic line first (compared across runs by tests), wall-clock
	// measurements second. Retries are wall-clock noise (failover windows),
	// so they live on the second line.
	fmt.Fprintf(stdout, "loadgen: %d requests to %q (%d clients, seed %d): %d ok, %d http-errors, %d transport-errors, digest %016x\n",
		len(reqs), name, f.clients, f.seed, ok.Load(), httpErr.Load(), transport.Load(), digest.Load())
	fmt.Fprintf(stdout, "loadgen: wall %.2fs, %.0f req/s, %d retries; latency ms p50 %.3f p95 %.3f p99 %.3f max %.3f\n",
		wall.Seconds(), float64(len(reqs))/wall.Seconds(), retried,
		lat.Quantile(0.50)*1e3, lat.Quantile(0.95)*1e3, lat.Quantile(0.99)*1e3, lat.Max()*1e3)
	for _, k := range loadgenKinds {
		h := perKind[k]
		if h.Count() == 0 {
			continue
		}
		fmt.Fprintf(stdout, "loadgen: endpoint %s: %d reqs; latency ms p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
			k, h.Count(), h.Quantile(0.50)*1e3, h.Quantile(0.90)*1e3, h.Quantile(0.99)*1e3, h.Max()*1e3)
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
	if f.profile.Path != "" {
		fmt.Fprintf(stdout, "loadgen: %s profile written to %s\n", f.profile.Mode, f.profile.Path)
	}
	if n := transport.Load(); n > 0 {
		return fmt.Errorf("loadgen: %d transport errors", n)
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
