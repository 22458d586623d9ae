package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"datanet"
	"datanet/internal/clusterd"
	"datanet/internal/elasticmap"
	"datanet/internal/gen"
	"datanet/internal/hdfs"
	"datanet/internal/records"
	"datanet/internal/server"
)

// Cluster shape and wall-clock timing of `datanet serve -cluster 3
// -replicas 2`: the control loop ticks every 100 ms, so heartbeats,
// suspicion sweeps and snapshot shipping advance on that cadence.
const (
	clusterNodes     = 3
	clusterShards    = 4
	clusterReplicas  = 2
	clusterTickEvery = 100 * time.Millisecond
)

func clusterConfig() clusterd.Config {
	return clusterd.Config{
		Shards: clusterShards, Replicas: clusterReplicas,
		Detect:    datanet.DetectorConfig{Mode: datanet.DetectHeartbeat, Interval: 0.5, Timeout: 1.5},
		ShipDelay: 0.1,
	}
}

// liveCluster is one booted cluster: a listener per node and the tick loop.
type liveCluster struct {
	c       *clusterd.Cluster
	primary *clusterd.Handler // handler of the array's shard primary
	url     string            // its base URL
	servers []*httptest.Server
	stop    chan struct{}
	ticking sync.WaitGroup
}

// bootCluster loads base into a fresh cluster and starts serving it.
func bootCluster(base *elasticmap.Array) (*liveCluster, error) {
	c, err := clusterd.New(clusterConfig(), clusterNodes)
	if err != nil {
		return nil, err
	}
	if err := c.Load(arrayName, base); err != nil {
		return nil, err
	}
	lc := &liveCluster{c: c, stop: make(chan struct{})}
	primary := c.Topology().Map[clusterd.ShardOf(arrayName, clusterShards)].Primary
	for _, id := range c.MemberIDs() {
		h, err := clusterd.NewHandler(c, id)
		if err != nil {
			lc.close()
			return nil, err
		}
		ts := httptest.NewServer(h)
		lc.servers = append(lc.servers, ts)
		c.SetAddr(id, ts.Listener.Addr().String())
		if int(id) == primary {
			lc.primary, lc.url = h, ts.URL
		}
	}
	if lc.primary == nil {
		lc.close()
		return nil, fmt.Errorf("shard of %q has no primary", arrayName)
	}
	lc.ticking.Add(1)
	go func() {
		defer lc.ticking.Done()
		start := time.Now()
		ticker := time.NewTicker(clusterTickEvery)
		defer ticker.Stop()
		for {
			select {
			case <-lc.stop:
				return
			case <-ticker.C:
				c.Tick(time.Since(start).Seconds())
			}
		}
	}()
	return lc, nil
}

// close stops the tick loop, waits for it, and closes the listeners.
func (lc *liveCluster) close() {
	close(lc.stop)
	lc.ticking.Wait()
	for _, ts := range lc.servers {
		ts.Close()
	}
}

// clusterInst alternates appends and reads against the shard primary of a
// 3-node cluster, from one closed-loop client so the request/response
// digest is deterministic. Every pass gets a freshly booted cluster: an
// append changes the array and its epoch, so a second pass on the same
// cluster would be a different workload.
type clusterInst struct {
	sz      sizes
	fs      *hdfs.FileSystem
	base    *elasticmap.Array   // the first BaseBlocks blocks' meta
	single  []*elasticmap.Array // one-block arrays, appended one per round
	encoded [][]byte            // their wire form, the POST bodies
	reads   []request           // ReadsPerRound per round, answers attached
	live    *liveCluster
}

func setupClusterAppend(seed int64, sz sizes) (instance, error) {
	_, fs, meta, err := buildM1(seed, sz)
	if err != nil {
		return nil, err
	}
	full := meta.Array()
	if full.Len() < sz.BaseBlocks+sz.AppendRounds {
		return nil, fmt.Errorf("M1 has %d blocks, cluster-append needs %d", full.Len(), sz.BaseBlocks+sz.AppendRounds)
	}
	metas := make([]*elasticmap.BlockMeta, full.Len())
	for i := range metas {
		metas[i] = full.Block(i)
	}
	c := &clusterInst{sz: sz, fs: fs, base: elasticmap.FromMetas(metas[:sz.BaseBlocks], full.Options())}
	for k := 0; k < sz.AppendRounds; k++ {
		one := elasticmap.FromMetas(metas[sz.BaseBlocks+k:sz.BaseBlocks+k+1], full.Options())
		blob, err := elasticmap.Encode(one)
		if err != nil {
			return nil, fmt.Errorf("encoding block %d: %w", sz.BaseBlocks+k, err)
		}
		c.single, c.encoded = append(c.single, one), append(c.encoded, blob)
	}

	// The reads of round k see the array after k+1 appends: attach to each
	// estimate the answer that array gives, accumulated block by block.
	c.reads = generateMix(rand.New(rand.NewSource(seed)), arrayName, warmPool(c.base, sz.WarmPool),
		sz.AppendRounds*sz.ReadsPerRound, sz.PlanNodes)
	running := map[string]*estimateAnswer{}
	for i := range c.reads {
		r := &c.reads[i]
		if r.sub == "" {
			continue
		}
		if _, ok := running[r.sub]; !ok {
			total, hashed, bloomed := c.base.EstimateDetailed(r.sub)
			running[r.sub] = &estimateAnswer{total, hashed, bloomed}
		}
	}
	for k := 0; k < sz.AppendRounds; k++ {
		for sub, acc := range running {
			size, class := metas[sz.BaseBlocks+k].Query(sub)
			switch class {
			case elasticmap.Hashed:
				acc.Estimate, acc.HashedBlocks = acc.Estimate+size, acc.HashedBlocks+1
			case elasticmap.Bloomed:
				acc.Estimate, acc.BloomedBlocks = acc.Estimate+size, acc.BloomedBlocks+1
			}
		}
		for i := k * sz.ReadsPerRound; i < (k+1)*sz.ReadsPerRound; i++ {
			if r := &c.reads[i]; r.sub != "" {
				snapshot := *running[r.sub]
				r.want = &snapshot
			}
		}
	}
	return c, nil
}

func (c *clusterInst) prepare() error {
	c.close()
	var err error
	c.live, err = bootCluster(c.base)
	return err
}

func (c *clusterInst) close() {
	if c.live != nil {
		c.live.close()
		c.live = nil
	}
}

func (c *clusterInst) pass(tr *tracer) (*passResult, error) {
	p := &passResult{counts: map[string]int64{}}
	var mu sync.Mutex
	cl := newClient(p, &mu)
	defer cl.hc.CloseIdleConnections()
	appendPath := "/v1/arrays/" + arrayName + "/append"
	for k, blob := range c.encoded {
		ms := cl.do(tr, c.live.url, request{method: "POST", path: appendPath, body: blob, kind: "append"})
		p.appendLat = append(p.appendLat, ms)
		// Load published epoch 1, so the k-th append (from 0) publishes k+2.
		if cl.lastEpoch != uint64(k+2) {
			cl.fail("append %d: epoch %d, want %d", k, cl.lastEpoch, k+2)
		}
		for _, r := range c.reads[k*c.sz.ReadsPerRound : (k+1)*c.sz.ReadsPerRound] {
			p.lat = append(p.lat, cl.do(tr, c.live.url, r))
		}
	}
	p.attempted += len(c.encoded) + len(c.reads)
	p.digest = cl.digest
	dump := c.live.primary.Server().DumpMetrics()
	p.counts["cache_hits"], p.counts["cache_misses"] = int64(dump.CacheHits), int64(dump.CacheMisses)
	p.counts["ships_delivered"] = int64(c.live.c.Stats().ShipsDelivered)
	p.counts["stale_reads"] = int64(cl.stale)
	return p, nil
}

func (c *clusterInst) layers(lc *layerCtx) error {
	traced := lc.passes[len(lc.passes)-1]
	serverSideLayers(lc, c.live.primary.Server().DumpMetrics())
	lc.set("clusterd.ships_delivered", float64(traced.counts["ships_delivered"]))
	lc.set("clusterd.stale_reads", float64(traced.counts["stale_reads"]))

	// The write path layer by layer, each through its public entry alone:
	// ElasticMap (index rebuild, copy-on-write append), the single-process
	// server (PUT, append), the cluster control plane (append, read gate).
	lc.set("elasticmap.index_build_ms", 1e3*timeMedian(5, func() { elasticmap.NewIndex(c.base) }))
	blocks, err := blockRecords(c.fs)
	if err != nil {
		return err
	}
	lc.set("elasticmap.appended_ms", 1e3*timeMedian(5, func() {
		c.base.Appended([][]records.Record{blocks[c.sz.BaseBlocks]})
	}))

	baseBlob, err := elasticmap.Encode(c.base)
	if err != nil {
		return err
	}
	srv := server.New(server.NewStore(server.DefaultCacheSize))
	put := request{method: "PUT", path: "/v1/arrays/" + arrayName, body: baseBlob}
	lc.set("server.put_ms", median(directUs(srv, []request{put, put, put}))/1e3)
	appends := make([]request, len(c.encoded))
	for k, blob := range c.encoded {
		appends[k] = request{method: "POST", path: "/v1/arrays/" + arrayName + "/append", body: blob}
	}
	lc.set("server.append_ms", median(directUs(srv, appends))/1e3)

	plane, err := clusterd.New(clusterConfig(), clusterNodes)
	if err != nil {
		return err
	}
	if err := plane.Load(arrayName, c.base); err != nil {
		return err
	}
	var appendMs []float64
	for _, one := range c.single {
		start := time.Now()
		if _, err := plane.Append(arrayName, one); err != nil {
			return fmt.Errorf("clusterd append: %w", err)
		}
		appendMs = append(appendMs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	lc.setSamples("clusterd.append_ms", appendMs)
	const n = 2000
	gate := make([]float64, n)
	for i := range gate {
		start := time.Now()
		if _, _, err := plane.Read(arrayName); err != nil {
			return fmt.Errorf("clusterd read: %w", err)
		}
		gate[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	lc.setSamples("clusterd.read_gate_us", gate)

	// What the cluster handler (leadership gate, request-id middleware,
	// span ring) adds to a cached estimate over the bare server.
	primary := plane.Topology().Map[clusterd.ShardOf(arrayName, clusterShards)].Primary
	handler, err := clusterd.NewHandler(plane, datanet.NodeID(primary))
	if err != nil {
		return err
	}
	hit := make([]request, n)
	for i := range hit {
		hit[i] = request{method: "GET", path: "/v1/arrays/" + arrayName + "/estimate?sub=" + gen.MovieID(0)}
	}
	lc.set("clusterd.handler_overhead_us",
		median(directUs(handler, hit)[1:])-median(directUs(newServer(c.base), hit)[1:]))
	return nil
}
