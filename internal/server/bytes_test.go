package server

import (
	"bytes"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

// The typed answers of /top, /distribution, the write routes and
// /v1/arrays must render byte for byte as the map[string]any shapes they
// replaced, whose keys encoding/json sorts. The keys and names carry every
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
	for _, sub := range append(subs, "absent") {
		dist := arr.Distribution(sub)
		rows := make([]blockEstimate, len(dist))
		for i, be := range dist {
			rows[i] = blockEstimate{Block: be.Block, Size: be.Size, Class: be.Class.String()}
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
