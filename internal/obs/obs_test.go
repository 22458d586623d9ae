package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"datanet/internal/metrics"
	"datanet/internal/trace"
)

// reqSpan builds a recorded request span the way server.Server does.
func reqSpan(id string, d float64) *trace.Event {
	return &trace.Event{Type: trace.EvRequest, Node: -1, Block: -1, Dur: d,
		Request: &trace.Request{ID: id, Shard: -1}}
}

func TestRingBoundedAndOrdered(t *testing.T) {
	r := NewRing(8)
	if len(r.slots) != 8 {
		t.Fatalf("cap %d, want 8", len(r.slots))
	}
	for i := 0; i < 20; i++ {
		r.Put(reqSpan(fmt.Sprintf("r%d", i), 0))
	}
	got := r.Snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot holds %d spans, want 8", len(got))
	}
	for i, sp := range got {
		if want := 12 + i; sp.Seq != want {
			t.Errorf("span %d: seq %d, want %d (oldest retained first)", i, sp.Seq, want)
		}
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	r := NewRing(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Put(&trace.Event{})
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != 1024 {
		t.Fatalf("snapshot holds %d spans, want full ring 1024", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}

func TestSlowLogKeepsTopK(t *testing.T) {
	l := NewSlowLog(3)
	for _, d := range []float64{5, 1, 9, 2, 7, 3, 8} {
		l.Offer(reqSpan("", d))
	}
	top := l.Top()
	if len(top) != 3 {
		t.Fatalf("slow log holds %d, want 3", len(top))
	}
	for i, want := range []float64{9, 8, 7} {
		if top[i].Dur != want {
			t.Errorf("slow[%d] = %v, want %v", i, top[i].Dur, want)
		}
	}
	// A fast request after the log filled must not displace anything.
	l.Offer(reqSpan("", 0.1))
	if got := l.Top(); len(got) != 3 || got[2].Dur != 7 {
		t.Errorf("fast request displaced the slow log: %+v", got)
	}
}

func TestTraceHandlerFormats(t *testing.T) {
	tr := NewTracer()
	a := reqSpan("a", 0.002)
	a.T, a.Detail, a.Request.Status = 1, "estimate", 200
	tr.Record(a)
	b := reqSpan("b", 0.009)
	b.T, b.Detail, b.Node = 1.003, "plan", 1
	b.Request.Shard, b.Request.Status, b.Request.Stale = 3, 200, true
	tr.Record(b)
	ts := httptest.NewServer(tr)
	defer ts.Close()

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	// JSONL: one parseable object per line, ring order.
	sc := bufio.NewScanner(bytes.NewReader(get("/")))
	var ids []string
	for sc.Scan() {
		var sp trace.Event
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.Request == nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ids = append(ids, sp.Request.ID)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Errorf("JSONL ids %v, want [a b]", ids)
	}

	// Chrome: valid wrapper with metadata + X events.
	var ctf struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	chrome := get("/?format=chrome")
	if err := json.Unmarshal(chrome, &ctf); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	// Byte for byte the serving plane's export, written by the converter
	// the simulator's timeline goes through too.
	if want, err := os.ReadFile("testdata/spans_chrome.golden"); err != nil || !bytes.Equal(chrome, want) {
		t.Errorf("chrome trace differs from testdata/spans_chrome.golden (%v):\n%s", err, chrome)
	}
	var xs int
	for _, ev := range ctf.TraceEvents {
		if ev.Ph == "X" {
			xs++
		}
	}
	if xs != 2 {
		t.Errorf("chrome trace has %d X spans, want 2", xs)
	}

	// Slow log view returns slowest first.
	sc = bufio.NewScanner(bytes.NewReader(get("/?slow=true")))
	ids = ids[:0]
	for sc.Scan() {
		var sp trace.Event
		json.Unmarshal(sc.Bytes(), &sp)
		ids = append(ids, sp.Request.ID)
	}
	if len(ids) != 2 || ids[0] != "b" {
		t.Errorf("slow view ids %v, want b first", ids)
	}

	// Unknown format is a 400.
	resp, err := http.Get(ts.URL + "/?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", resp.StatusCode)
	}
}

func TestPromBuilderFormat(t *testing.T) {
	h := new(metrics.Latency)
	for _, v := range []float64{0.001, 0.02, 0.02, 5} {
		h.Observe(v)
	}
	p := NewProm()
	p.Family("x_total", "counter", "A counter.")
	p.AddInt("x_total", []Label{{"endpoint", "estimate"}}, 3)
	p.Family("lat_seconds", "histogram", "A histogram.")
	p.Hist("lat_seconds", []Label{{"endpoint", "estimate"}}, h)
	out := string(p.Bytes())

	want := []string{
		"# TYPE x_total counter",
		`x_total{endpoint="estimate"} 3`,
		`lat_seconds_bucket{endpoint="estimate",le="0.01"} 1`,
		`lat_seconds_bucket{endpoint="estimate",le="0.1"} 3`,
		`lat_seconds_bucket{endpoint="estimate",le="+Inf"} 4`,
		`lat_seconds_count{endpoint="estimate"} 4`,
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Errorf("exposition missing line %q:\n%s", w, out)
		}
	}
	if err := ValidatePromText(p.Bytes()); err != nil {
		t.Errorf("builder output fails its own validator: %v", err)
	}
}

func TestValidatePromText(t *testing.T) {
	good := NewProm()
	good.Family("a_total", "counter", "ok")
	good.AddInt("a_total", nil, 1)
	good.AddRuntime()
	if err := ValidatePromText(good.Bytes()); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{
		"a_total 1 2 3\n",
		"{oops} 1\n",
		"a_total nope\n",
		"no trailing newline",
	} {
		if err := ValidatePromText([]byte(bad)); err == nil {
			t.Errorf("validator accepted %q", bad)
		}
	}
}

func TestNewLogger(t *testing.T) {
	if l, err := NewLogger("off", nil); err != nil || l != nil {
		t.Errorf("off level: got (%v, %v), want (nil, nil)", l, err)
	}
	var buf bytes.Buffer
	l, err := NewLogger("info", &buf)
	if err != nil || l == nil {
		t.Fatalf("info level: %v", err)
	}
	l.Info("hello", "requestId", "r-1")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["requestId"] != "r-1" {
		t.Errorf("log record %v missing fields", rec)
	}
	if _, err := NewLogger("verbose", &buf); err == nil {
		t.Error("bad level accepted")
	}
}
