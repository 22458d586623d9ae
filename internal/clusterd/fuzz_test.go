package clusterd

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"datanet/internal/server"
)

// FuzzAdminPlane throws arbitrary methods, paths, queries and bodies at
// the membership endpoints, /admin/addnode and /admin/decommission,
// through NewHandler. Every answer must be a 2xx, a 4xx or a typed 503 —
// never a panic and never any other 5xx — and whatever the request did to
// membership, the cluster must still converge. Each iteration gets a
// fresh cluster, so membership changes cannot accumulate across runs.
func FuzzAdminPlane(f *testing.F) {
	f.Add("POST", "/admin/addnode", "", []byte{})
	f.Add("GET", "/admin/addnode", "", []byte{})
	f.Add("POST", "/admin/decommission", "node=1", []byte{})
	f.Add("POST", "/admin/decommission", "node=0", []byte{}) // the answering node itself
	f.Add("POST", "/admin/decommission", "node=-1", []byte{})
	f.Add("POST", "/admin/decommission", "node=99", []byte{})
	f.Add("POST", "/admin/decommission", "node=9223372036854775808", []byte{})
	f.Add("POST", "/admin/decommission", "node=abc&node=1", []byte(`{"node":2}`))
	f.Add("DELETE", "/admin/decommission", "", []byte{})
	f.Add("POST", "/admin/addnode/", "node=1", []byte{})

	f.Fuzz(func(t *testing.T, method, path, query string, body []byte) {
		if !strings.HasPrefix(path, "/admin/addnode") && !strings.HasPrefix(path, "/admin/decommission") {
			t.Skip("not the membership plane")
		}
		target := path
		if query != "" {
			target += "?" + query
		}
		// httptest.NewRequest panics on request lines a real client could
		// not send; skip those, as FuzzServeRequest does.
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

		c, err := New(testConfig(2, 1), 3)
		if err != nil {
			t.Fatal(err)
		}
		seed(t, c, testNames(3))
		h, err := NewHandler(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code >= 500 {
			var eb server.ErrorBody
			if rec.Code != 503 || json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Kind == "" {
				t.Fatalf("%s %s with %d body bytes → %d: %s", method, target, len(body), rec.Code, rec.Body.String())
			}
		}
		tickUntilConverged(t, c, 0, 40)
	})
}
