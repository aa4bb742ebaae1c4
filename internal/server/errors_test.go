package server

// Typed-error mapping sweep: every POST endpoint — the public /v1 API
// and the peer-local /v1/cluster plane — must map the three
// protocol-level failure shapes to the same typed responses:
//
//	wrong method   → 405, Allow header, JSON error body
//	malformed body → 400, JSON error body naming the parse failure
//	oversized body → 413 (JSON endpoints; MaxBytesReader enforced)
//
// and every error response must carry the X-Request-Id header so
// clients can quote /debug/trace/{id} when reporting failures.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rankjoin"
	"rankjoin/internal/cluster"
	"rankjoin/internal/shard"
)

// newClusteredTestServer builds a server over an explicit ring of one —
// what New builds for itself when Config.Cluster is nil; the two must
// be indistinguishable (TestRingOfOneIsTheSingleNode).
func newClusteredTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	clu, err := cluster.New(cluster.Config{Self: 0, Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = clu
	return newTestServer(t, cfg)
}

func postRaw(t *testing.T, url, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// assertTypedError checks the response contract shared by every error
// path: the expected status, a JSON body with a non-empty "error"
// field, and an echoed request id.
func assertTypedError(t *testing.T, resp *http.Response, wantStatus int, label string) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status %d, want %d", label, resp.StatusCode, wantStatus)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/json" {
		t.Errorf("%s: content-type %q, want application/json", label, got)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Errorf("%s: error response missing X-Request-Id", label)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("%s: error body not JSON: %v", label, err)
	} else if body.Error == "" {
		t.Errorf("%s: error body has empty error field", label)
	}
}

// jsonPostPaths are the endpoints that decode a JSON request body.
var jsonPostPaths = []string{
	"/v1/search", "/v1/knn", "/v1/insert", "/v1/delete", "/v1/join",
	cluster.PathSearch, cluster.PathGet, cluster.PathInsert,
	cluster.PathDelete,
}

// binaryPostPaths take length-prefixed binary frames, not JSON.
var binaryPostPaths = []string{cluster.PathShuffle, cluster.PathJoin}

func TestWrongMethodAcrossEndpoints(t *testing.T) {
	_, ts := newClusteredTestServer(t, Config{})
	for _, path := range append(append([]string{}, jsonPostPaths...), binaryPostPaths...) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		assertTypedError(t, resp, http.StatusMethodNotAllowed, "GET "+path)
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s: Allow header %q, want POST", path, allow)
		}
		resp.Body.Close()
	}
	// The GET-only endpoints reject POST symmetrically.
	for _, path := range []string{"/healthz", "/statusz", "/metrics", "/debug/traces"} {
		resp := postRaw(t, ts.URL+path, "application/json", []byte(`{}`))
		assertTypedError(t, resp, http.StatusMethodNotAllowed, "POST "+path)
	}
}

func TestMalformedBodyAcrossEndpoints(t *testing.T) {
	_, ts := newClusteredTestServer(t, Config{})
	for _, garbage := range [][]byte{
		[]byte(`{"theta": `),           // truncated JSON
		[]byte(`not json at all`),      // not JSON
		[]byte(`{"no_such_field": 1}`), // unknown field (DisallowUnknownFields)
	} {
		for _, path := range jsonPostPaths {
			resp := postRaw(t, ts.URL+path, "application/json", garbage)
			assertTypedError(t, resp, http.StatusBadRequest, "POST "+path+" "+string(garbage))
		}
	}
	// Binary endpoints reject garbage frames as client errors, never 5xx.
	for _, path := range binaryPostPaths {
		resp := postRaw(t, ts.URL+path, "application/octet-stream", []byte("XXXXnot a frame"))
		assertTypedError(t, resp, http.StatusBadRequest, "POST "+path+" garbage frame")
	}
}

func TestOversizedBodyAcrossEndpoints(t *testing.T) {
	const limit = 1 << 10
	_, ts := newClusteredTestServer(t, Config{MaxBodyBytes: limit})
	// A syntactically valid JSON object larger than the body bound, so
	// the only possible rejection is the size limit itself.
	huge := []byte(`{"pad": "` + strings.Repeat("x", 4*limit) + `"}`)
	for _, path := range jsonPostPaths {
		resp := postRaw(t, ts.URL+path, "application/json", huge)
		assertTypedError(t, resp, http.StatusRequestEntityTooLarge, "POST "+path+" oversized")
	}
}

// TestTypedErrorMappingUnit pins the decode() mapping directly: a
// MaxBytesError becomes 413, everything else 400.
func TestTypedErrorMappingUnit(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequest(shard.ErrKMismatch), http.StatusBadRequest},
		{&httpError{status: http.StatusRequestEntityTooLarge, err: shard.ErrNilRanking}, http.StatusRequestEntityTooLarge},
		{shard.ErrKMismatch, http.StatusBadRequest},
		{fmt.Errorf("job 1: %w: id 7", rankjoin.ErrDuplicateID), http.StatusBadRequest},
		{rankjoin.ErrMixedLengths, http.StatusBadRequest},
		{errReadOnly, http.StatusForbidden},
		// 502 is for a ring whose every peer failed, whatever of; one
		// node's own deadline stays a 504.
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("%w: %w", cluster.ErrAllShardsFailed, context.DeadlineExceeded), http.StatusBadGateway},
		{nil, http.StatusOK},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
