package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Spans nest workload → pass → op → layer call; Parent is 0 at the
// root. Count carries the work the interval covered (bytes, records,
// requests, tasks), so ratios are taken where the work happens.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the pass ends. A nil *tracer records
// nothing, so workloads call begin/end unconditionally and untraced passes
// pay one nil check per boundary. A tracer serves one goroutine; fork and
// join give each further goroutine its own.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int // ids of the spans begun and not yet ended, innermost last
	parent int   // for a forked tracer: the span its root spans hang under
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	s.Count = count
	t.open = t.open[:len(t.open)-1]
}

// record adds a finished span of a known duration under the innermost open
// span, anchored at that span's start — for work whose duration the
// benchmark is told but whose start it cannot see.
func (t *tracer) record(name, layer string, durNs int64) {
	if t == nil {
		return
	}
	id := t.begin(name, layer)
	s := &t.spans[id-1]
	if s.Parent > 0 {
		s.Start = t.spans[s.Parent-1].Start
	}
	s.End = s.Start + durNs
	t.open = t.open[:len(t.open)-1]
}

// fork returns a tracer for another goroutine. Its root spans hang under
// t's innermost open span and share t's clock; join folds them back.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	return &tracer{epoch: t.epoch, parent: parent}
}

// join appends the spans of forked tracers, renumbering their ids.
func (t *tracer) join(children ...*tracer) {
	if t == nil {
		return
	}
	for _, c := range children {
		off := len(t.spans)
		for _, s := range c.spans {
			s.ID += off
			if s.Parent == 0 {
				s.Parent = c.parent
			} else {
				s.Parent += off
			}
			t.spans = append(t.spans, s)
		}
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (children of concurrent
// goroutines may overlap, so coverage is the union of their intervals).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeTrace writes the spans, each with its self time, as JSON lines to
// dir/<workload>.trace.jsonl.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for _, s := range spans {
		line := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return w.Flush()
}
