package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

// The typed answers of /top, the write routes and /v1/arrays, and the
// appended /distribution body, must render byte for byte as the
// map[string]any shapes they replaced, whose keys encoding/json sorts. The keys and names carry every
// character class JSON escapes: HTML-significant '<' and '&', a quote,
// U+2028 and an invalid UTF-8 byte.
func TestResponseBytesMatchMapShapes(t *testing.T) {
	subs := []string{"a<b", "x&y", `q"q`, "line\u2028sep", "bad\xffutf8", "plain"}
	// Each block holds every key, one of them far larger than the rest, so
	// each key is dominant in some block.
	block := func(big int) []records.Record {
		var recs []records.Record
		for i, sub := range subs {
			size := 10
			if i == big {
				size = 4000
			}
			recs = append(recs, records.Record{Sub: sub, Payload: strings.Repeat("p", size)})
		}
		return recs
	}
	var blocks [][]records.Record
	for i := range subs {
		blocks = append(blocks, block(i), block(i))
	}
	arr := elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.5})
	name := `arr<&"` + "\u2028\xff"
	store := NewStore(32)
	store.Put(name, arr)
	store.Put("logs", arr)
	s := New(store)
	path := "/v1/arrays/" + url.PathEscape(name)

	body := func(method, target string, blob []byte) []byte {
		t.Helper()
		rec, _ := doReq(t, s, method, target, blob)
		if rec.Code != 200 {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", what, got, want)
		}
	}
	snap := func(name string) *Snapshot {
		sn, ok := store.Get(name)
		if !ok {
			t.Fatalf("no snapshot for %q", name)
		}
		return sn
	}

	sn := snap(name)
	if arr.Index().DominantSubs() != len(subs) {
		t.Fatalf("%d of %d keys are dominant somewhere", arr.Index().DominantSubs(), len(subs))
	}
	for _, n := range []int{0, 1, 3, 100} {
		top := arr.Index().Top(n)
		entries := make([]map[string]any, len(top))
		for i, e := range top {
			entries[i] = map[string]any{"sub": e.Sub, "bytes": e.Bytes}
		}
		same("top n="+strconv.Itoa(n), body("GET", path+"/top?n="+strconv.Itoa(n), nil),
			marshal(map[string]any{"epoch": sn.Epoch, "entries": entries}))
	}
	// A distribution row's keys are not sorted: it renders as the struct
	// the body was first marshaled from.
	type row struct {
		Block int    `json:"block"`
		Size  int64  `json:"size"`
		Class string `json:"class"`
	}
	for _, sub := range append(subs, "absent") {
		dist := arr.Distribution(sub)
		rows := make([]row, len(dist))
		for i, be := range dist {
			rows[i] = row{Block: be.Block, Size: be.Size, Class: be.Class.String()}
		}
		same("distribution "+strconv.Quote(sub), body("GET", path+"/distribution?sub="+url.QueryEscape(sub), nil),
			marshal(map[string]any{"epoch": sn.Epoch, "sub": sub, "blocks": rows}))
	}

	more := elasticmap.Build([][]records.Record{block(1)}, elasticmap.Options{Alpha: 0.5})
	blob, err := elasticmap.Encode(more)
	if err != nil {
		t.Fatal(err)
	}
	got := body("POST", path+"/append", blob)
	sn = snap(name)
	same("append", got, marshal(map[string]any{"name": name, "epoch": sn.Epoch, "blocks": sn.Arr.Len()}))
	fresh := name + "-put"
	got = body("PUT", "/v1/arrays/"+url.PathEscape(fresh), blob)
	sn = snap(fresh)
	same("put", got, marshal(map[string]any{"name": fresh, "epoch": sn.Epoch, "blocks": sn.Arr.Len()}))

	list := store.List()
	infos := make([]arrayInfo, len(list))
	for i, sn := range list {
		infos[i] = infoOf(sn)
	}
	got = body("GET", "/v1/arrays", nil)
	same("arrays", got, marshal(map[string]any{"arrays": infos}))
	for _, esc := range []string{`\u003c`, `\u0026`, `\"`, `\u2028`, `\ufffd`} {
		if !bytes.Contains(got, []byte(esc)) {
			t.Errorf("the catalog body has no %s: the escape went untested", esc)
		}
	}
}

// Every /plan body is appended, and must be the bytes encoding/json gives
// the same PlanResponse: for every policy, over synthesized and explicit
// placements (a block with no replica among them), for subs that need
// every escape, a sub absent from the array, and cluster sizes whose
// average load is fractional. A request's invalid UTF-8 decodes to U+FFFD,
// so the raw sub is also put back into each response and rendered both
// ways.
func TestPlanBytesMatchMarshal(t *testing.T) {
	subs := []string{"a<b", "x&y", `q"q`, "line\u2028sep", "bad\xffutf8", "tab\tctl\x01", "plain"}
	var blocks [][]records.Record
	for i := range 3 * len(subs) {
		var recs []records.Record
		for k, sub := range subs {
			if (i+k)%3 != 0 {
				recs = append(recs, records.Record{Sub: sub, Payload: strings.Repeat("p", 10+(i*k*37)%900)})
			}
		}
		blocks = append(blocks, recs)
	}
	arr := elasticmap.Build(blocks, elasticmap.Options{Alpha: 0.5})
	store := NewStore(1024)
	store.Put("logs", arr)
	s := New(store)
	sn, _ := store.Get("logs")

	rng := rand.New(rand.NewSource(3))
	explicit := func(nodes int) [][]int {
		locs := make([][]int, arr.Len())
		for j := range locs {
			if j == 2 {
				locs[j] = []int{}
				continue
			}
			locs[j] = rng.Perm(nodes)[:1+rng.Intn(min(3, nodes))]
		}
		return locs
	}
	escapes := map[string]bool{}
	for _, sched := range []string{"datanet", "capacity", "locality", "lpt", "maxflow"} {
		for _, nodes := range []int{1, 4, 7} {
			for _, locs := range [][][]int{nil, explicit(nodes)} {
				for _, sub := range append(subs, "absent") {
					req := PlanRequest{Sub: sub, Nodes: nodes, Racks: 1, Replication: 2, Scheduler: sched, Locations: locs}
					blob, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					rec, _ := doReq(t, s, "POST", "/v1/arrays/logs/plan", blob)
					if rec.Code != 200 {
						t.Fatalf("%s: %d %s", blob, rec.Code, rec.Body)
					}
					served, err := decodePlanRequest(blob) // as the handler reads it
					if err != nil {
						t.Fatal(err)
					}
					if err := served.validate(arr.Len()); err != nil {
						t.Fatal(err)
					}
					resp, err := buildPlan(sn, &served)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := rec.Body.Bytes(), marshal(resp); !bytes.Equal(got, want) {
						t.Fatalf("%s:\n got %s\nwant %s", blob, got, want)
					}
					resp.Sub = sub
					got := appendPlan(nil, resp)
					if want := marshal(resp); !bytes.Equal(got, want) {
						t.Fatalf("%s with sub %q:\n got %s\nwant %s", blob, sub, got, want)
					}
					for _, esc := range []string{`\u003c`, `\u0026`, `\"`, `\u2028`, `\ufffd`, `\t`, `\u0001`} {
						escapes[esc] = escapes[esc] || bytes.Contains(got, []byte(esc))
					}
				}
			}
		}
	}
	for esc, seen := range escapes {
		if !seen {
			t.Errorf("no plan body has %s: the escape went untested", esc)
		}
	}
}

// appendFloat writes what json.Marshal writes for a float64.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	values := []float64{
		0, 1, -1, 42, 1e6, 123456789, 1 << 53, 1e20, // integer-valued
		0.5, 1.0 / 3, -2.75, 1e-6, 0.000123, 98765.4321, // fractional
		1e21, 1.5e21, 1 << 70, 1e300, math.MaxFloat64, -1e22, // from 1e21 up
		9.99e-7, 1e-7, 5e-324, 1.234e-10, -3e-9, math.SmallestNonzeroFloat64 * 3, // below 1e-6
		math.Copysign(0, -1),
	}
	rng := rand.New(rand.NewSource(9))
	for range 2000 {
		values = append(values, math.Float64frombits(rng.Uint64()&^(0x7ff<<52)|uint64(rng.Intn(0x7ff))<<52))
	}
	for _, f := range values {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("%v: got %s, want %s", f, got, want)
		}
	}
}

// appendString writes what json.Marshal writes for a string, over every
// byte value in a few positions and random short byte strings.
func TestAppendStringMatchesMarshal(t *testing.T) {
	strs := []string{"", "plain", "a<b>c&d", `q"q\\`, "\u2028\u2029", "\xff", "\xe2\x80", "é", "\x7f", "\x00\b\f\n\r\t"}
	for c := 0; c < 256; c++ {
		strs = append(strs, string([]byte{byte(c)}), "x"+string([]byte{byte(c)})+"y")
	}
	rng := rand.New(rand.NewSource(11))
	for range 2000 {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("%q: got %s, want x%s", s, got, want)
		}
	}
}
