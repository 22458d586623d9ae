package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"datanet/internal/metrics"
)

// Prometheus text-format (version 0.0.4) exposition. The builder writes
// families and samples in call order, so every renderer that emits its
// families in a fixed sequence produces byte-stable field and label
// ordering — a property the server's golden test pins.

// PromContentType is the exposition content type.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair.
type Label struct{ K, V string }

// Prom accumulates exposition text.
type Prom struct{ buf bytes.Buffer }

// NewProm returns an empty builder.
func NewProm() *Prom { return &Prom{} }

// Family emits the # HELP / # TYPE header of a metric family. typ is
// "counter", "gauge" or "histogram".
func (p *Prom) Family(name, typ, help string) {
	fmt.Fprintf(&p.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Add emits one sample.
func (p *Prom) Add(name string, labels []Label, v float64) {
	p.buf.WriteString(name)
	p.writeLabels(labels)
	p.buf.WriteByte(' ')
	p.buf.WriteString(formatPromValue(v))
	p.buf.WriteByte('\n')
}

// AddInt emits one integer-valued sample.
func (p *Prom) AddInt(name string, labels []Label, v uint64) {
	p.buf.WriteString(name)
	p.writeLabels(labels)
	p.buf.WriteByte(' ')
	p.buf.WriteString(strconv.FormatUint(v, 10))
	p.buf.WriteByte('\n')
}

// Hist emits one histogram series: cumulative buckets at
// metrics.LatencyBounds plus +Inf, then _sum and _count (the +Inf
// bucket's), all under the given labels.
func (p *Prom) Hist(name string, labels []Label, h *metrics.Latency) {
	counts := h.Buckets()
	bl := make([]Label, len(labels)+1)
	copy(bl, labels)
	for i, b := range metrics.LatencyBounds {
		bl[len(labels)] = Label{K: "le", V: formatPromValue(b)}
		p.AddInt(name+"_bucket", bl, counts[i])
	}
	n := counts[len(metrics.LatencyBounds)]
	bl[len(labels)] = Label{K: "le", V: "+Inf"}
	p.AddInt(name+"_bucket", bl, n)
	p.Add(name+"_sum", labels, h.Sum())
	p.AddInt(name+"_count", labels, n)
}

// Bytes returns the exposition text built so far.
func (p *Prom) Bytes() []byte { return p.buf.Bytes() }

func (p *Prom) writeLabels(labels []Label) {
	if len(labels) == 0 {
		return
	}
	p.buf.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			p.buf.WriteByte(',')
		}
		p.buf.WriteString(l.K)
		p.buf.WriteString(`="`)
		p.buf.WriteString(l.V)
		p.buf.WriteByte('"')
	}
	p.buf.WriteByte('}')
}

// formatPromValue renders a float the way Prometheus expects.
func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ValidatePromText checks text against the exposition grammar subset
// this package emits: every line is a comment (# HELP / # TYPE) or a
// sample `name{labels} value`, names and label keys are legal metric
// identifiers, values parse as floats (+Inf allowed), and the text ends
// with a newline. The server, clusterd and cmd/datanet tests gate on it.
func ValidatePromText(text []byte) error {
	if len(text) == 0 || text[len(text)-1] != '\n' {
		return fmt.Errorf("prom: exposition must end with a newline")
	}
	for ln, line := range bytes.Split(text[:len(text)-1], []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if !bytes.HasPrefix(line, []byte("# HELP ")) && !bytes.HasPrefix(line, []byte("# TYPE ")) {
				return fmt.Errorf("prom: line %d: bad comment %q", ln+1, line)
			}
			continue
		}
		rest := string(line)
		name := rest
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				return fmt.Errorf("prom: line %d: unterminated labels in %q", ln+1, line)
			}
			for _, kv := range strings.Split(rest[i+1:j], ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok || !isMetricName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return fmt.Errorf("prom: line %d: bad label %q", ln+1, kv)
				}
			}
			rest = strings.TrimPrefix(rest[j+1:], " ")
		} else if i := strings.IndexByte(rest, ' '); i >= 0 {
			name, rest = rest[:i], rest[i+1:]
		} else {
			return fmt.Errorf("prom: line %d: no value in %q", ln+1, line)
		}
		if !isMetricName(name) {
			return fmt.Errorf("prom: line %d: bad metric name %q", ln+1, name)
		}
		val := strings.TrimPrefix(rest, " ")
		if val != "+Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("prom: line %d: bad value %q", ln+1, val)
			}
		}
	}
	return nil
}

func isMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// AddRuntime appends the Go runtime gauges: goroutines, heap, and GC
// pause totals. These describe one process, so cluster rollups must not
// sum them — the rollup renderer leaves them out.
func (p *Prom) AddRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Family("datanet_go_goroutines", "gauge", "Current goroutine count.")
	p.AddInt("datanet_go_goroutines", nil, uint64(runtime.NumGoroutine()))
	p.Family("datanet_go_heap_alloc_bytes", "gauge", "Bytes of allocated heap objects.")
	p.AddInt("datanet_go_heap_alloc_bytes", nil, ms.HeapAlloc)
	p.Family("datanet_go_heap_sys_bytes", "gauge", "Bytes of heap obtained from the OS.")
	p.AddInt("datanet_go_heap_sys_bytes", nil, ms.HeapSys)
	p.Family("datanet_go_gc_cycles_total", "counter", "Completed GC cycles.")
	p.AddInt("datanet_go_gc_cycles_total", nil, uint64(ms.NumGC))
	p.Family("datanet_go_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause time.")
	p.Add("datanet_go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)
}
