package server

import (
	"net/http"
	"sort"

	"datanet/internal/metrics"
	"datanet/internal/obs"
)

// EndpointDump is one route's raw metric state: counters plus a copy of
// the latency histogram's counters (not a summary), so dumps merge
// losslessly. Its JSON (a /v1/metrics row) writes the histogram as its
// summary. Latency is read-only: every idle route of a dump shares one
// empty histogram.
type EndpointDump struct {
	Requests uint64           `json:"requests"`
	Errors   uint64           `json:"errors"`
	Latency  *metrics.Latency `json:"latency"`
}

// MetricsDump is the server's raw metric state. The cluster rollup
// merges per-node dumps through Latency.Merge, which adds counters, so
// the merged dump equals one that observed the union stream.
type MetricsDump struct {
	Endpoints   map[string]EndpointDump `json:"endpoints"`
	CacheHits   uint64                  `json:"cacheHits"`
	CacheMisses uint64                  `json:"cacheMisses"`
}

// idleLatency is the histogram a dump gives every route that has observed
// no request. Nothing writes into it.
var idleLatency metrics.Latency

// DumpMetrics snapshots the server's counters and latency histograms in
// mergeable form. It copies the histograms of the routes that have
// observed a request, and only those.
func (s *Server) DumpMetrics() MetricsDump {
	d := MetricsDump{
		Endpoints:   make(map[string]EndpointDump, len(s.byEndpoint)),
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMiss.Load(),
	}
	for l, em := range s.byEndpoint {
		lat := &idleLatency
		if em.latency.Count() > 0 {
			lat = new(metrics.Latency)
			lat.Merge(&em.latency)
		}
		d.Endpoints[l] = EndpointDump{Requests: lat.Count(), Errors: em.errors.Load(), Latency: lat}
	}
	return d
}

// MergeDumps folds per-node dumps into one cluster-wide view: counters
// sum, histograms add their counters. Dumps are merged in
// argument order.
func MergeDumps(dumps ...MetricsDump) MetricsDump {
	out := MetricsDump{Endpoints: map[string]EndpointDump{}}
	for _, d := range dumps {
		out.CacheHits += d.CacheHits
		out.CacheMisses += d.CacheMisses
		for l, ed := range d.Endpoints {
			acc, ok := out.Endpoints[l]
			if !ok {
				acc = EndpointDump{Latency: new(metrics.Latency)}
			}
			acc.Requests += ed.Requests
			acc.Errors += ed.Errors
			acc.Latency.Merge(ed.Latency)
			out.Endpoints[l] = acc
		}
	}
	return out
}

// RenderProm renders a dump as Prometheus text-format exposition.
// Families and labels are emitted in a fixed order (endpoint labels
// ascending), a stability promise the golden test pins. withRuntime
// appends the per-process Go runtime gauges; cluster rollups leave them
// out because they are not mergeable across processes.
func RenderProm(d MetricsDump, withRuntime bool) []byte {
	labels := make([]string, 0, len(d.Endpoints))
	for l := range d.Endpoints {
		labels = append(labels, l)
	}
	sort.Strings(labels)

	p := obs.NewProm()
	p.Family("datanet_http_requests_total", "counter", "Requests received, by endpoint.")
	for _, l := range labels {
		p.AddInt("datanet_http_requests_total", []obs.Label{{K: "endpoint", V: l}}, d.Endpoints[l].Requests)
	}
	p.Family("datanet_http_request_errors_total", "counter", "Requests answered with an error status, by endpoint.")
	for _, l := range labels {
		p.AddInt("datanet_http_request_errors_total", []obs.Label{{K: "endpoint", V: l}}, d.Endpoints[l].Errors)
	}
	p.Family("datanet_http_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, l := range labels {
		p.Hist("datanet_http_request_duration_seconds", []obs.Label{{K: "endpoint", V: l}}, d.Endpoints[l].Latency)
	}
	p.Family("datanet_cache_hits_total", "counter", "Per-epoch result-cache hits.")
	p.AddInt("datanet_cache_hits_total", nil, d.CacheHits)
	p.Family("datanet_cache_misses_total", "counter", "Per-epoch result-cache misses.")
	p.AddInt("datanet_cache_misses_total", nil, d.CacheMisses)
	if withRuntime {
		p.AddRuntime()
	}
	return p.Bytes()
}

// handleProm is GET /metrics: the Prometheus text-format view of the
// same counters /v1/metrics reports as JSON, plus Go runtime gauges.
// Deliberately uninstrumented, like /v1/metrics: scraping must not
// perturb the numbers being scraped.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(RenderProm(s.DumpMetrics(), true))
}
