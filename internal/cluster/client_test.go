package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rankjoin/internal/shard"
)

func testClient(t *testing.T, handler http.Handler, hedgeDelay time.Duration) *peerClient {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return &peerClient{
		addr:       strings.TrimPrefix(srv.URL, "http://"),
		http:       srv.Client(),
		rpcTimeout: time.Second,
		hedgeDelay: hedgeDelay,
		probeEvery: 10 * time.Millisecond,
	}
}

func TestClientHedgesSlowFirstAttempt(t *testing.T) {
	var calls atomic.Int64
	p := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // first attempt stalls
		}
		w.Write([]byte(`ok`))
	}), 20*time.Millisecond)

	start := time.Now()
	data, err := p.do(context.Background(), "/x", "text/plain", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ok" {
		t.Fatalf("body %q", data)
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Fatalf("hedge did not win: took %v", elapsed)
	}
	if p.hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", p.hedges.Load())
	}
}

func TestClientRetriesFastFailure(t *testing.T) {
	// A refused connection fails fast; do() retries once immediately.
	p := &peerClient{
		addr:       "127.0.0.1:1", // nothing listens here
		http:       &http.Client{},
		rpcTimeout: 200 * time.Millisecond,
		hedgeDelay: time.Hour, // timer never fires; only fast-fail retry
		probeEvery: time.Hour,
	}
	if _, err := p.do(context.Background(), "/x", "text/plain", nil, 0); err == nil {
		t.Fatal("expected error")
	}
	if p.hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1 (fast-fail retry)", p.hedges.Load())
	}
	if p.errors.Load() != 1 {
		t.Fatalf("errors = %d, want 1 (one logical RPC failed)", p.errors.Load())
	}
}

func TestClientDownAndHalfOpenProbe(t *testing.T) {
	var healthy atomic.Bool
	p := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`ok`))
	}), time.Hour)

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := p.do(ctx, "/x", "text/plain", nil, 0); err == nil {
			t.Fatal("expected failure")
		}
	}
	if !p.down() {
		t.Fatalf("peer not down after %d consecutive failures", p.fails.Load())
	}
	// While down and before the probe window, RPCs fail immediately.
	p.lastProbe.Store(time.Now().UnixNano())
	if _, err := p.do(ctx, "/x", "text/plain", nil, 0); err == nil || !strings.Contains(err.Error(), "peer down") {
		t.Fatalf("want fast peer-down rejection, got %v", err)
	}
	// After the probe interval a single probe goes through and revives.
	healthy.Store(true)
	time.Sleep(15 * time.Millisecond)
	if _, err := p.do(ctx, "/x", "text/plain", nil, 0); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if p.down() {
		t.Fatal("peer still down after successful probe")
	}
}

func TestClientSurfacesServerErrorBody(t *testing.T) {
	p := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"theta out of range"}`, http.StatusBadRequest)
	}), time.Hour)
	_, err := p.do(context.Background(), "/x", "text/plain", nil, 0)
	if err == nil || !strings.Contains(err.Error(), "theta out of range") {
		t.Fatalf("want server error text surfaced, got %v", err)
	}
}

// TestMutateNeverHedges is the write-path correctness guard: a slow
// owner must receive a mutation exactly once. The hedged path would
// launch a duplicate when the first attempt outlives hedgeDelay, and a
// duplicate apply double-bumps the owner's shard epoch, corrupting the
// WAL/replication cursor.
func TestMutateNeverHedges(t *testing.T) {
	var calls atomic.Int64
	p := testClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(120 * time.Millisecond) // well past hedgeDelay
		w.Write([]byte(`{"ok":true}`))
	}), 10*time.Millisecond)

	data, err := p.doMutate(context.Background(), "/v1/cluster/insert", "application/json", []byte(`{}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"ok":true}` {
		t.Fatalf("body %q", data)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("slow owner saw %d requests, want exactly 1", got)
	}
	if p.hedges.Load() != 0 {
		t.Fatalf("hedges = %d, want 0 for a mutation", p.hedges.Load())
	}
}

// TestMutateNoFastFailRetry: even a fast failure must not be retried by
// this layer — the connection can die after the owner applied the
// write, so a blind re-send risks a duplicate apply.
func TestMutateNoFastFailRetry(t *testing.T) {
	p := &peerClient{
		addr:       "127.0.0.1:1", // nothing listens here
		http:       &http.Client{},
		rpcTimeout: 200 * time.Millisecond,
		hedgeDelay: time.Nanosecond, // would retry instantly on the hedged path
		probeEvery: time.Hour,
	}
	if _, err := p.doMutate(context.Background(), "/x", "application/json", nil, 0); err == nil {
		t.Fatal("expected error")
	}
	if p.hedges.Load() != 0 {
		t.Fatalf("hedges = %d, want 0 (mutations never retry)", p.hedges.Load())
	}
	if p.rpcs.Load() != 1 {
		t.Fatalf("rpcs = %d, want 1", p.rpcs.Load())
	}
}

// TestScatterRingOfOneAllocationFree: a world of one is its local leg —
// Scatter adds no allocation of its own, so every single-node search
// can go through it.
func TestScatterRingOfOneAllocationFree(t *testing.T) {
	c, err := New(Config{Peers: []string{"self"}})
	if err != nil {
		t.Fatal(err)
	}
	want := []shard.Neighbor{{ID: 7, Dist: 2}}
	local := func(context.Context) ([]shard.Neighbor, error) { return want, nil }
	ctx := context.Background()
	if avg := testing.AllocsPerRun(100, func() {
		res, err := c.Scatter(ctx, SearchReq{KNN: 1}, local)
		if err != nil || res.Partial || len(res.Hits) != 1 || res.Hits[0] != want[0] {
			t.Fatalf("ring-of-one scatter = %+v, %v", res, err)
		}
	}); avg != 0 {
		t.Errorf("ring-of-one scatter: %.2f allocs/op beyond the local leg, want 0; find it with: go build -gcflags=-m ./internal/cluster 2>&1 | grep -E 'escapes|moved to heap'", avg)
	}
}
