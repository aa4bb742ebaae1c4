package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"rankjoin/internal/cluster"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url string, body any) (int, map[string]json.RawMessage) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable response: %v", url, err)
	}
	return resp.StatusCode, out
}

func searchHits(t *testing.T, base string, body any) ([]shard.Neighbor, bool) {
	t.Helper()
	code, out := post(t, base+"/v1/search", body)
	if code != http.StatusOK {
		t.Fatalf("search returned %d: %s", code, out["error"])
	}
	var hits []shard.Neighbor
	if err := json.Unmarshal(out["hits"], &hits); err != nil {
		t.Fatal(err)
	}
	var cached bool
	if raw, ok := out["cached"]; ok {
		json.Unmarshal(raw, &cached) //nolint:errcheck
	}
	return hits, cached
}

func insertRankings(t *testing.T, base string, rs []*rankings.Ranking) {
	t.Helper()
	body := map[string]any{"rankings": rs}
	code, out := post(t, base+"/v1/insert", body)
	if code != http.StatusOK {
		t.Fatalf("insert returned %d: %s", code, out["error"])
	}
}

func bruteNeighbors(rs []*rankings.Ranking, q *rankings.Ranking, maxDist int, exclude int64) []shard.Neighbor {
	var out []shard.Neighbor
	for _, r := range rs {
		if r.ID == exclude {
			continue
		}
		if d := rankings.Footrule(q, r); d <= maxDist {
			out = append(out, shard.Neighbor{ID: r.ID, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func sameNeighbors(a, b []shard.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEndToEnd drives the full API over HTTP and cross-checks every
// search answer against brute-force Footrule on the live dataset.
func TestEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rs := testutil.ClusteredDataset(rng, 30, 4, 8, 100)
	_, ts := newTestServer(t, Config{})
	insertRankings(t, ts.URL, rs)

	const theta = 0.25
	maxDist := rankings.Threshold(theta, 8)
	for _, q := range rs[:20] {
		hits, _ := searchHits(t, ts.URL, map[string]any{"id": q.ID, "theta": theta})
		if want := bruteNeighbors(rs, q, maxDist, q.ID); !sameNeighbors(hits, want) {
			t.Fatalf("query %d: got %v want %v", q.ID, hits, want)
		}
	}

	// Ad-hoc items query: no self-exclusion.
	q := rs[0]
	hits, _ := searchHits(t, ts.URL, map[string]any{"items": q.Items, "theta": theta})
	if want := bruteNeighbors(rs, q, maxDist, shard.NoExclude); !sameNeighbors(hits, want) {
		t.Fatalf("items query: got %v want %v", hits, want)
	}
	// Line-format query.
	line := ""
	for i, it := range q.Items {
		if i > 0 {
			line += " "
		}
		line += fmt.Sprint(it)
	}
	lineHits, _ := searchHits(t, ts.URL, map[string]any{"line": line, "theta": theta})
	if !sameNeighbors(lineHits, hits) {
		t.Fatalf("line query diverged: %v vs %v", lineHits, hits)
	}

	// kNN over HTTP agrees with the range oracle's prefix.
	code, out := post(t, ts.URL+"/v1/knn", map[string]any{"id": q.ID, "k": 5})
	if code != http.StatusOK {
		t.Fatalf("knn returned %d", code)
	}
	var knn []shard.Neighbor
	if err := json.Unmarshal(out["hits"], &knn); err != nil {
		t.Fatal(err)
	}
	all := bruteNeighbors(rs, q, rankings.MaxFootrule(8), q.ID)
	if want := all[:5]; !sameNeighbors(knn, want) {
		t.Fatalf("knn: got %v want %v", knn, want)
	}

	// Delete shrinks the result set.
	victim := hits[0].ID
	code, _ = post(t, ts.URL+"/v1/delete", map[string]any{"ids": []int64{victim}})
	if code != http.StatusOK {
		t.Fatalf("delete returned %d", code)
	}
	after, _ := searchHits(t, ts.URL, map[string]any{"items": q.Items, "theta": theta})
	for _, h := range after {
		if h.ID == victim {
			t.Fatalf("deleted ranking %d still returned", victim)
		}
	}

	// Ad-hoc join agrees with itself at tiny scale.
	code, out = post(t, ts.URL+"/v1/join", map[string]any{
		"rankings": rs[:20], "theta": theta,
	})
	if code != http.StatusOK {
		t.Fatalf("join returned %d: %s", code, out["error"])
	}
	var pairs []pairJSON
	if err := json.Unmarshal(out["pairs"], &pairs); err != nil {
		t.Fatal(err)
	}
	wantPairs := 0
	for i := 0; i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			if rankings.Footrule(rs[i], rs[j]) <= maxDist {
				wantPairs++
			}
		}
	}
	if len(pairs) != wantPairs {
		t.Fatalf("join pairs = %d, want %d", len(pairs), wantPairs)
	}

	// Health and status.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	var st Status
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Size != len(rs)-1 || st.K != 8 {
		t.Fatalf("statusz size/k = %d/%d, want %d/8", st.Size, st.K, len(rs)-1)
	}
	if st.Filters.Generated == 0 || !st.Filters.Conserved() {
		t.Fatalf("statusz filters bad: %+v", st.Filters)
	}
	if !st.LastTrace.Present || !st.LastTrace.Valid {
		t.Fatalf("statusz last trace invalid: %+v", st.LastTrace)
	}

	// The exported sweep trace parses as Chrome trace JSON with events.
	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace: %v %v", resp.StatusCode, err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(trace.TraceEvents) == 0 {
		t.Fatal("debug/trace exported no events")
	}
}

// TestCacheInvalidation: a repeated query must be served from cache,
// and any insert/delete must invalidate it (per shard epoch).
func TestCacheInvalidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	rs := []*rankings.Ranking{
		rankings.MustNew(1, []rankings.Item{1, 2, 3, 4, 5}),
		rankings.MustNew(2, []rankings.Item{1, 2, 3, 5, 4}),
	}
	insertRankings(t, ts.URL, rs)
	body := map[string]any{"items": []int{1, 2, 3, 4, 5}, "theta": 0.2}

	hits1, cached1 := searchHits(t, ts.URL, body)
	if cached1 {
		t.Fatal("first query claimed cached")
	}
	hits2, cached2 := searchHits(t, ts.URL, body)
	if !cached2 || !sameNeighbors(hits1, hits2) {
		t.Fatalf("second query cached=%v hits=%v, want cached copy of %v", cached2, hits2, hits1)
	}
	h, m := s.cache.stats()
	if h != 1 || m != 1 {
		t.Fatalf("cache stats hits=%d misses=%d, want 1/1", h, m)
	}

	// Insert a new neighbor: the same query must recompute and see it.
	insertRankings(t, ts.URL, []*rankings.Ranking{
		rankings.MustNew(3, []rankings.Item{2, 1, 3, 4, 5}),
	})
	hits3, cached3 := searchHits(t, ts.URL, body)
	if cached3 {
		t.Fatal("query after insert still served from cache")
	}
	if len(hits3) != len(hits1)+1 {
		t.Fatalf("hits after insert = %v, want one more than %v", hits3, hits1)
	}

	// Delete invalidates too.
	post(t, ts.URL+"/v1/delete", map[string]any{"ids": []int64{3}})
	hits4, cached4 := searchHits(t, ts.URL, body)
	if cached4 || !sameNeighbors(hits4, hits1) {
		t.Fatalf("hits after delete = %v cached=%v, want fresh %v", hits4, cached4, hits1)
	}

	// A delete that hits nothing is a pure no-op: no shard epoch moves,
	// so the warm cache entry must survive. (Before the write-path
	// sweep, the phantom epoch bump evicted every cached answer for the
	// id's shard.)
	if _, cached := searchHits(t, ts.URL, body); !cached {
		t.Fatal("warm-up query not cached")
	}
	code, out := post(t, ts.URL+"/v1/delete", map[string]any{"ids": []int64{999_999}})
	if code != http.StatusOK {
		t.Fatalf("miss delete returned %d: %s", code, out["error"])
	}
	var deleted int
	if err := json.Unmarshal(out["deleted"], &deleted); err != nil || deleted != 0 {
		t.Fatalf("miss delete reported deleted=%d (err %v), want 0", deleted, err)
	}
	hits5, cached5 := searchHits(t, ts.URL, body)
	if !cached5 || !sameNeighbors(hits5, hits1) {
		t.Fatalf("missed delete evicted the cache: cached=%v hits=%v", cached5, hits5)
	}
}

// statusTable is the API's error contract over an index holding one
// ranking of k = 3: malformed requests get 4xx, never 5xx.
var statusTable = []struct {
	path string
	body any
	want int
}{
	{"/v1/search", map[string]any{"items": []int{1, 2, 3}}, http.StatusBadRequest},                                  // missing theta
	{"/v1/search", map[string]any{"items": []int{1, 2, 3}, "theta": 7.0}, http.StatusBadRequest},                    // theta range
	{"/v1/search", map[string]any{"theta": 0.2}, http.StatusBadRequest},                                             // no query
	{"/v1/search", map[string]any{"items": []int{1, 1, 2}, "theta": 0.2}, http.StatusBadRequest},                    // duplicate item
	{"/v1/search", map[string]any{"items": []int{1, 2}, "theta": 0.2}, http.StatusBadRequest},                       // k mismatch
	{"/v1/search", map[string]any{"id": 99, "theta": 0.2}, http.StatusNotFound},                                     // unknown id
	{"/v1/knn", map[string]any{"items": []int{1, 2, 3}}, http.StatusBadRequest},                                     // missing k
	{"/v1/insert", map[string]any{}, http.StatusBadRequest},                                                         // no rankings
	{"/v1/insert", map[string]any{"rankings": []map[string]any{{"id": 9}}}, http.StatusBadRequest},                  // empty ranking
	{"/v1/delete", map[string]any{}, http.StatusBadRequest},                                                         // no ids
	{"/v1/join", map[string]any{"rankings": []map[string]any{{"id": 1, "items": []int{1}}}}, http.StatusBadRequest}, // no theta
	{"/v1/join", map[string]any{"theta": 0.3, "rankings": []map[string]any{
		{"id": 1, "items": []int{1, 2, 3}}, {"id": 1, "items": []int{3, 2, 1}}}}, http.StatusBadRequest}, // duplicated id
	{"/v1/join", map[string]any{"theta": 0.3, "rankings": []map[string]any{
		{"id": 1, "items": []int{1, 2, 3}}, {"id": 2, "items": []int{2, 1}}}}, http.StatusBadRequest}, // mixed lengths
}

// TestValidationErrors holds a single node to statusTable.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	insertRankings(t, ts.URL, []*rankings.Ranking{
		rankings.MustNew(1, []rankings.Item{1, 2, 3}),
	})
	for _, c := range statusTable {
		code, _ := post(t, ts.URL+c.path, c.body)
		if code != c.want {
			t.Errorf("%s %v: code %d, want %d", c.path, c.body, code, c.want)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/search = %d, want 405", resp.StatusCode)
	}
}

// TestRingOfOneIsTheSingleNode: Config.Cluster == nil and an explicit
// ring of one are one program — the same script of reads, writes, a
// join and every row of the status table is answered with the same
// status and the same bytes.
func TestRingOfOneIsTheSingleNode(t *testing.T) {
	_, implicit := newTestServer(t, Config{})
	_, explicit := newClusteredTestServer(t, Config{})
	near := map[string]any{"items": []int{1, 2, 3}, "theta": 0.5}
	type step struct {
		path string
		body any
	}
	script := []step{
		{"/v1/search", near}, // empty index
		{"/v1/insert", map[string]any{"rankings": []map[string]any{
			{"id": 1, "items": []int{1, 2, 3}}, {"id": 2, "items": []int{2, 1, 3}}, {"id": 3, "items": []int{7, 8, 9}}}}},
		{"/v1/search", near},
		{"/v1/search", near}, // cached
		{"/v1/knn", map[string]any{"id": 1, "k": 2}},
		{cluster.PathSearch, cluster.SearchReq{Items: []rankings.Item{1, 2, 3}, KNN: 2, Exclude: 1}},
		{"/v1/join", map[string]any{"theta": 0.5, "rankings": []map[string]any{
			{"id": 1, "items": []int{1, 2, 3}}, {"id": 2, "items": []int{2, 1, 3}}, {"id": 3, "items": []int{7, 8, 9}}}}},
		{"/v1/delete", map[string]any{"ids": []int64{2, 3, 99}}},
		{"/v1/search", near},
	}
	for _, c := range statusTable {
		script = append(script, step{c.path, c.body})
	}
	for i, st := range script {
		raw, err := json.Marshal(st.body)
		if err != nil {
			t.Fatal(err)
		}
		a, b := postRaw(t, implicit.URL+st.path, "application/json", raw), postRaw(t, explicit.URL+st.path, "application/json", raw)
		bodyA, _ := io.ReadAll(a.Body)
		bodyB, _ := io.ReadAll(b.Body)
		if a.StatusCode != b.StatusCode || !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("step %d %s %s:\nnil cluster  %d %s\nring of one  %d %s", i, st.path, raw, a.StatusCode, bodyA, b.StatusCode, bodyB)
		}
	}
}

// TestConcurrentServe exercises concurrent insert/delete/search HTTP
// traffic (the -race target for the serving layer) and verifies the
// quiesced state serves brute-force-correct results.
func TestConcurrentServe(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 16})
	rng := rand.New(rand.NewSource(51))
	base := testutil.RandDataset(rng, 100, 6, 60)
	insertRankings(t, ts.URL, base)

	const writers, readers, ops = 3, 5, 60
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(60 + w)))
			for i := 0; i < ops; i++ {
				id := int64(1000*(w+1) + i)
				r := testutil.RandRanking(rng, id, 6, 60)
				code, out := post(t, ts.URL+"/v1/insert",
					map[string]any{"rankings": []*rankings.Ranking{r}})
				if code != http.StatusOK {
					t.Errorf("insert %d: %d %s", id, code, out["error"])
					return
				}
				if i%3 == 0 {
					post(t, ts.URL+"/v1/delete", map[string]any{"ids": []int64{id}})
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + rd)))
			for i := 0; i < ops; i++ {
				q := testutil.RandRanking(rng, -1, 6, 60)
				if i%2 == 0 {
					searchHits(t, ts.URL, map[string]any{"items": q.Items, "theta": 0.3})
				} else {
					post(t, ts.URL+"/v1/knn", map[string]any{"items": q.Items, "k": 3})
				}
			}
		}(rd)
	}
	wg.Wait()

	// Quiesced correctness against the live snapshot.
	live, _ := s.Index().Snapshot()
	maxDist := rankings.Threshold(0.3, 6)
	for _, q := range base[:10] {
		hits, _ := searchHits(t, ts.URL, map[string]any{"items": q.Items, "theta": 0.3})
		if want := bruteNeighbors(live, q, maxDist, shard.NoExclude); !sameNeighbors(hits, want) {
			t.Fatalf("post-quiescence query diverged: got %v want %v", hits, want)
		}
	}
	st := s.Status()
	if st.Batch.Sweeps == 0 {
		t.Fatal("no sweeps recorded")
	}
	if !st.Filters.Conserved() {
		t.Fatalf("filters not conserved: %+v", st.Filters)
	}
}
