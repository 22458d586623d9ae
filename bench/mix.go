package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// request is one pre-generated HTTP request of a serving workload. The
// whole list is derived from the seed before any client starts, and the API
// is snapshot-consistent, so every response is a pure function of the seed.
type request struct {
	method string
	path   string
	body   []byte
	// kind labels the request for spans and for the share test: estimate,
	// distribution, top, info, plan, unknown (estimate of a key the array
	// never saw) or malformed (estimate without ?sub=, answered 400).
	kind string
	// sub is set on estimate requests for real keys; want is the answer
	// Array.EstimateDetailed gives for it, which the response must equal.
	sub  string
	want *estimateAnswer
}

// planSchedulers are the /plan policies the mix draws from. loadgen also
// draws "maxflow"; the benchmark's mix leaves it out because a max-flow
// plan's cost depends on the path its load-cap search takes through the
// weights (a few ms to tens of ms from one key or seed to the next), which
// made every serving metric follow the seed instead of the code. It is
// timed on its own as server.plan_maxflow_miss_ms.
var planSchedulers = []string{"datanet", "locality", "lpt"}

// generateMix reproduces the `datanet loadgen` traffic mix (which lives in
// package main of cmd/datanet and cannot be imported): 35% estimate, 25%
// distribution, 12% top, 8% info, 10% plan POST, 6% unknown key, 4%
// malformed (the plan POSTs over three of loadgen's four schedulers, see
// planSchedulers). subs is the key pool: its size against the server's 1024-entry
// per-epoch cache is what separates serve-warm from serve-cold.
func generateMix(rng *rand.Rand, name string, subs []string, n, planNodes int) []request {
	prefix := "/v1/arrays/" + name
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		sub := subs[rng.Intn(len(subs))]
		switch p := rng.Intn(100); {
		case p < 35:
			reqs = append(reqs, request{method: "GET", path: prefix + "/estimate?sub=" + sub, kind: "estimate", sub: sub})
		case p < 60:
			reqs = append(reqs, request{method: "GET", path: prefix + "/distribution?sub=" + sub, kind: "distribution"})
		case p < 72:
			reqs = append(reqs, request{method: "GET", path: fmt.Sprintf("%s/top?n=%d", prefix, 1+rng.Intn(16)), kind: "top"})
		case p < 80:
			reqs = append(reqs, request{method: "GET", path: prefix, kind: "info"})
		case p < 90:
			body, _ := json.Marshal(map[string]any{ // a map of strings and ints always marshals
				"sub":       sub,
				"nodes":     planNodes,
				"scheduler": planSchedulers[rng.Intn(len(planSchedulers))],
			})
			reqs = append(reqs, request{method: "POST", path: prefix + "/plan", body: body, kind: "plan"})
		case p < 96:
			reqs = append(reqs, request{method: "GET",
				path: fmt.Sprintf("%s/estimate?sub=missing-%d", prefix, rng.Intn(1000)), kind: "unknown"})
		default:
			reqs = append(reqs, request{method: "GET", path: prefix + "/estimate", kind: "malformed"})
		}
	}
	return reqs
}
