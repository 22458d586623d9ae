package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

func tinyArray(sub string, n int) *elasticmap.Array {
	recs := make([]records.Record, n)
	for i := range recs {
		recs[i] = records.Record{Sub: sub, Time: int64(i), Rating: 3, Payload: "pp"}
	}
	return elasticmap.Build([][]records.Record{recs}, elasticmap.Options{Alpha: 0.5})
}

// Liveness and readiness must split: an empty catalog is alive but not
// ready, and draining flips readiness off again.
func TestHealthzReadyzSplit(t *testing.T) {
	store := NewStore(8)
	srv := New(store)

	get := func(path string) (int, ErrorBody) {
		r := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		var body ErrorBody
		json.Unmarshal(w.Body.Bytes(), &body)
		return w.Code, body
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz on empty catalog = %d, want 200 (liveness is unconditional)", code)
	}
	if code, body := get("/readyz"); code != 503 || body.Kind != "not_ready" {
		t.Fatalf("readyz on empty catalog = %d kind %q, want 503 not_ready", code, body.Kind)
	}
	store.Put("a", tinyArray("s", 10))
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz with loaded catalog = %d, want 200", code)
	}

	// Readiness is the catalog's own check (a cluster node's "am I a live
	// member"), whatever the catalog holds.
	w := httptest.NewRecorder()
	New(notReady{store}).ServeHTTP(w, httptest.NewRequest("GET", "/readyz", nil))
	var body ErrorBody
	if json.Unmarshal(w.Body.Bytes(), &body); w.Code != 503 || body.Kind != "not_ready" {
		t.Fatalf("readyz under a failing catalog check = %d kind %q", w.Code, body.Kind)
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, body := get("/readyz")
	if code != 503 || body.Kind != "draining" {
		t.Fatalf("readyz while draining = %d kind %q, want 503 draining", code, body.Kind)
	}
	if body.RetryAfterMs <= 0 {
		t.Fatalf("draining response missing retryAfterMs: %+v", body)
	}
}

// notReady is a loaded catalog whose own readiness check fails.
type notReady struct{ *Store }

func (notReady) Ready() error { return errors.New("no shard role yet") }

// Drain must wait for in-flight appends and refuse new ones with the
// typed draining error.
func TestDrainWaitsForWriters(t *testing.T) {
	srv := New(NewStore(8))
	if err := srv.beginWrite(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	drained := false
	go func() {
		srv.Drain(context.Background())
		mu.Lock()
		drained = true
		mu.Unlock()
	}()
	// Give Drain a moment to flip the flag, then verify it is still
	// blocked on our in-flight write.
	deadline := time.Now().Add(time.Second)
	for !srv.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Drain never flipped the draining flag")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if drained {
		mu.Unlock()
		t.Fatal("Drain returned while a write was in flight")
	}
	mu.Unlock()
	if err := srv.beginWrite(); err == nil {
		t.Fatal("beginWrite admitted a new write while draining")
	}
	srv.endWrite()
	deadline = time.Now().Add(time.Second)
	for {
		mu.Lock()
		ok := drained
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Drain did not complete after the last writer finished")
		}
		time.Sleep(time.Millisecond)
	}

	// A second Drain with an expired context must fail fast when a writer
	// is stuck (simulated by a fresh server with a held write).
	stuck := New(NewStore(8))
	stuck.writers.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := stuck.Drain(ctx); err == nil {
		t.Fatal("Drain with a stuck writer did not honor its context")
	}
	stuck.writers.Done()
}

func TestPutEpoch(t *testing.T) {
	store := NewStore(8)
	arr := tinyArray("x", 20)
	sn, err := store.PutEpoch("a", arr, 7)
	if err != nil || sn.Epoch != 7 {
		t.Fatalf("PutEpoch fresh: %v, epoch %d", err, sn.Epoch)
	}
	if _, err := store.PutEpoch("a", arr, 7); err == nil {
		t.Fatal("PutEpoch accepted a non-advancing epoch")
	}
	if _, err := store.PutEpoch("a", arr, 3); err == nil {
		t.Fatal("PutEpoch accepted a backward epoch")
	}
	if sn, err = store.PutEpoch("a", arr, 12); err != nil || sn.Epoch != 12 {
		t.Fatalf("PutEpoch forward: %v, epoch %d", err, sn.Epoch)
	}
	// The normal sequence continues from the jumped epoch.
	sn2, err := store.Write("a", AppendTo(tinyArray("x", 5)))
	if err != nil || sn2.Epoch != 13 {
		t.Fatalf("append after PutEpoch: %v, epoch %d, want 13", err, sn2.Epoch)
	}
}

// Typed unavailability errors surface the Retry-After header and the
// machine-readable body fields.
func TestUnavailableShape(t *testing.T) {
	w := httptest.NewRecorder()
	WriteError(w, Unavailable("not_leader", 0.25, "shard %d led elsewhere", 3))
	if w.Code != 503 {
		t.Fatalf("code %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want ceil(0.25)=1", got)
	}
	var body ErrorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Kind != "not_leader" || body.RetryAfterMs != 250 || body.Error != "shard 3 led elsewhere" {
		t.Fatalf("body %+v", body)
	}
	// Plain errors keep the legacy single-field shape.
	w2 := httptest.NewRecorder()
	WriteError(w2, fmt.Errorf("boom"))
	if w2.Code != 400 || w2.Header().Get("Retry-After") != "" {
		t.Fatalf("plain error: code %d header %q", w2.Code, w2.Header().Get("Retry-After"))
	}
}
