package server

import (
	"bytes"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"datanet/internal/elasticmap"
	"datanet/internal/records"
)

// FuzzServeRequest throws arbitrary methods, targets and bodies at the
// service — including truncated and bit-flipped elasticmap encodings on
// the decode paths — and requires that malformed input is always answered
// with a 4xx: the server must never panic and never convert bad input into
// a 5xx. Each iteration gets a fresh store so PUT/append mutations cannot
// accumulate state across runs.
func FuzzServeRequest(f *testing.F) {
	valid, err := elasticmap.Encode(elasticmap.Build(
		[][]records.Record{blockOf("a", "b"), blockOf("b", "c")},
		elasticmap.Options{Alpha: 0.5},
	))
	if err != nil {
		f.Fatal(err)
	}

	f.Add("GET", "/healthz", []byte{})
	f.Add("GET", "/v1/arrays", []byte{})
	f.Add("GET", "/v1/arrays/logs/estimate?sub=a", []byte{})
	f.Add("GET", "/v1/arrays/logs/distribution?sub=a", []byte{})
	f.Add("GET", "/v1/arrays/logs/top?n=3", []byte{})
	f.Add("GET", "/v1/arrays/logs/top?n=99999999999999999999", []byte{})
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":4}`))
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":-1}`))
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":3,"scheduler":"lpt","locations":[[0,0,2]]}`))
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":2,"scheduler":"maxflow","locations":[[]]}`))
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":4,"schedular":"lpt"}`))
	f.Add("POST", "/v1/arrays/logs/plan", []byte(`{"sub":"a","nodes":4}]`))
	f.Add("PUT", "/v1/arrays/new", valid)
	f.Add("POST", "/v1/arrays/logs/append", valid)
	// Truncations and corruptions of a valid encoding.
	f.Add("PUT", "/v1/arrays/new", valid[:len(valid)/2])
	f.Add("PUT", "/v1/arrays/new", valid[:4])
	corrupt := bytes.Clone(valid)
	for i := 8; i < len(corrupt); i += 7 {
		corrupt[i] ^= 0xa5
	}
	f.Add("POST", "/v1/arrays/logs/append", corrupt)
	f.Add("GET", "/v1/metrics", []byte{})
	f.Add("DELETE", "/v1/arrays/logs", []byte{})

	f.Fuzz(func(t *testing.T, method, target string, body []byte) {
		// httptest.NewRequest panics on targets it cannot parse; that is a
		// harness limitation, not a server bug — skip inputs a real HTTP
		// stack would have rejected before routing.
		if !strings.HasPrefix(target, "/") {
			t.Skip()
		}
		// Whitespace and control bytes would corrupt the request line a
		// real client could never send.
		if strings.ContainsFunc(target, func(r rune) bool { return r <= ' ' || r == 0x7f }) {
			t.Skip()
		}
		if u, err := url.ParseRequestURI(target); err != nil || u.Host != "" {
			t.Skip()
		}
		switch method {
		case "GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS":
		default:
			t.Skip()
		}

		store := NewStore(16)
		store.Put("logs", elasticmap.Build([][]records.Record{blockOf("a")}, elasticmap.Options{Alpha: 0.5}))
		s := New(store)
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %s with %d body bytes → %d: %s", method, target, len(body), rec.Code, rec.Body.String())
		}
	})
}
