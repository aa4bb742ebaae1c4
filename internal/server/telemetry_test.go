package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
)

// get issues a GET with optional headers and returns status + body.
func get(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestRequestIDEcho pins the X-Request-Id contract: a client-supplied
// ID is honored verbatim, an absent one is minted, and distinct
// requests mint distinct IDs.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := get(t, ts.URL+"/healthz", map[string]string{"X-Request-ID": "my-rid-42"})
	if got := resp.Header.Get("X-Request-Id"); got != "my-rid-42" {
		t.Fatalf("honored request ID: got %q, want my-rid-42", got)
	}

	r1, _ := get(t, ts.URL+"/healthz", nil)
	r2, _ := get(t, ts.URL+"/healthz", nil)
	id1, id2 := r1.Header.Get("X-Request-Id"), r2.Header.Get("X-Request-Id")
	if id1 == "" || id2 == "" {
		t.Fatalf("minted request IDs empty: %q, %q", id1, id2)
	}
	if id1 == id2 {
		t.Fatalf("minted request IDs collide: %q", id1)
	}
}

// chromeTrace is the subset of the Chrome trace-event JSON the tests
// inspect.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
}

func fetchTrace(t *testing.T, base, id string) chromeTrace {
	t.Helper()
	resp, body := get(t, base+"/debug/trace/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace/%s: status %d (%s)", id, resp.StatusCode, body)
	}
	var ct chromeTrace
	if err := json.Unmarshal(body, &ct); err != nil {
		t.Fatalf("GET /debug/trace/%s: not Chrome trace JSON: %v", id, err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("GET /debug/trace/%s: no trace events", id)
	}
	return ct
}

// TestTailSampling pins the slow-request path with head sampling off:
// every request over the threshold is retained retroactively and
// retrievable by its X-Request-ID as a Chrome trace.
func TestTailSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	rs := testutil.RandDataset(rng, 20, 6, 60)
	s, ts := newTestServer(t, Config{
		TraceSampleEvery: -1, // head sampling off: any retained trace is a tail sample
		SlowThreshold:    time.Nanosecond,
	})
	insertRankings(t, ts.URL, rs)

	searchHits(t, ts.URL, map[string]any{"items": rs[0].Items, "theta": 0.3})
	// searchHits posts without a request ID; redo with one we control.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search",
		strings.NewReader(fmt.Sprintf(`{"id":%d,"theta":0.3}`, rs[1].ID)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slow-rid-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: status %d", resp.StatusCode)
	}

	ct := fetchTrace(t, ts.URL, "slow-rid-1")
	found := false
	for _, ev := range ct.TraceEvents {
		if ev.Args["request_id"] == "slow-rid-1" && ev.Args["tail_sampled"] == "true" {
			found = true
		}
	}
	if !found {
		t.Errorf("tail-sampled trace lacks request_id/tail_sampled args: %+v", ct.TraceEvents)
	}

	st := s.Status()
	if st.Traces.SampledTotal != 0 {
		t.Errorf("head-sampled %d traces with sampling disabled", st.Traces.SampledTotal)
	}
	if st.Traces.SlowTotal < 2 {
		t.Errorf("slow_total = %d, want >= 2 (1ns threshold catches everything)", st.Traces.SlowTotal)
	}

	// /debug/traces lists it under "slow".
	_, body := get(t, ts.URL+"/debug/traces", nil)
	var listing struct {
		Recent []traceSummary `json:"recent"`
		Slow   []traceSummary `json:"slow"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	var hit *traceSummary
	for i := range listing.Slow {
		if listing.Slow[i].ID == "slow-rid-1" {
			hit = &listing.Slow[i]
		}
	}
	if hit == nil {
		t.Fatalf("/debug/traces slow list misses slow-rid-1: %+v", listing.Slow)
	}
	if !hit.Slow || hit.Sampled {
		t.Errorf("slow-rid-1 flags = slow:%v sampled:%v, want slow:true sampled:false", hit.Slow, hit.Sampled)
	}
}

// TestHeadSampling pins the every-Nth head sampler: with N=2, requests
// 1 and 3 to an endpoint carry full span traces (retrievable by ID),
// requests 2 and 4 do not.
func TestHeadSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	rs := testutil.RandDataset(rng, 20, 6, 60)
	s, ts := newTestServer(t, Config{
		TraceSampleEvery: 2,
		SlowThreshold:    -1, // tail sampling off: any retained trace is a head sample
	})
	for _, r := range rs {
		if err := s.Index().Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 4; i++ {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search",
			strings.NewReader(fmt.Sprintf(`{"id":%d,"theta":0.3}`, rs[i].ID)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", fmt.Sprintf("head-rid-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %d: status %d", i, resp.StatusCode)
		}
	}

	st := s.Status()
	if st.Traces.SampledTotal != 2 {
		t.Errorf("sampled_total = %d after 4 requests at N=2, want 2", st.Traces.SampledTotal)
	}
	if st.Traces.SlowTotal != 0 {
		t.Errorf("slow_total = %d with tail sampling off, want 0", st.Traces.SlowTotal)
	}
	if !st.LastTrace.Present || !st.LastTrace.Valid {
		t.Errorf("last trace present=%v valid=%v (%s), want a valid retained trace",
			st.LastTrace.Present, st.LastTrace.Valid, st.LastTrace.Error)
	}

	ct := fetchTrace(t, ts.URL, "head-rid-0")
	var spans []string
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev.Name)
		}
	}
	joined := strings.Join(spans, ",")
	if !strings.Contains(joined, "http /v1/search") || !strings.Contains(joined, "serve/sweep") {
		t.Errorf("head-sampled trace spans %v lack the request root and the sweep child", spans)
	}
	for _, miss := range []string{"head-rid-1", "head-rid-3"} {
		if resp, _ := get(t, ts.URL+"/debug/trace/"+miss, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /debug/trace/%s: status %d, want 404 (request was not sampled)", miss, resp.StatusCode)
		}
	}
}

// TestWindowedStatusz pins the rolling-window statistics: after the
// window loop has ticked at least once, a burst of traffic shows up in
// the windowed count and QPS for its endpoint.
func TestWindowedStatusz(t *testing.T) {
	s, ts := newTestServer(t, Config{WindowInterval: 2 * time.Millisecond})

	// Let the loop record a pre-burst baseline snapshot.
	time.Sleep(20 * time.Millisecond)
	const burst = 25
	for i := 0; i < burst; i++ {
		if resp, _ := get(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d", resp.StatusCode)
		}
	}

	st := s.Status()
	win, ok := st.Windows["/healthz"]
	if !ok {
		t.Fatalf("statusz windows missing /healthz: %+v", st.Windows)
	}
	if win.Count != burst {
		t.Errorf("windowed count = %d, want %d (baseline snapshot predates the burst)", win.Count, burst)
	}
	if win.QPS <= 0 {
		t.Errorf("windowed QPS = %v, want > 0", win.QPS)
	}
	if win.WindowSeconds <= 0 {
		t.Errorf("window elapsed = %v, want > 0", win.WindowSeconds)
	}
	if win.P99us < win.P50us {
		t.Errorf("windowed p99 %dus < p50 %dus", win.P99us, win.P50us)
	}
	cum := st.Requests["/healthz"]
	if cum.Count < win.Count {
		t.Errorf("cumulative count %d < windowed count %d", cum.Count, win.Count)
	}
}

// TestTelemetryUnderTraffic hammers every telemetry read endpoint
// concurrently with live mutation and query traffic — the test the
// race detector leans on to prove /statusz, /metrics and the trace
// endpoints take no unsynchronized reads of serving state.
func TestTelemetryUnderTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const k = 8
	rs := testutil.ClusteredDataset(rng, 30, 4, k, 20*k)
	s, ts := newTestServer(t, Config{
		TraceSampleEvery: 2, // sample aggressively so tracing races surface
		SlowThreshold:    time.Millisecond,
		WindowInterval:   time.Millisecond,
	})
	insertRankings(t, ts.URL, rs)

	const (
		writers  = 3
		scrapers = 3
		iters    = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					q := rs[rng.Intn(len(rs))]
					post(t, ts.URL+"/v1/search", map[string]any{"items": q.Items, "theta": 0.25})
				case 1:
					q := rs[rng.Intn(len(rs))]
					post(t, ts.URL+"/v1/knn", map[string]any{"items": q.Items, "k": 5})
				case 2:
					r := testutil.RandRanking(rng, int64(1000+w*iters+i), k, 20*k)
					post(t, ts.URL+"/v1/insert", map[string]any{"rankings": []*rankings.Ranking{r}})
				case 3:
					post(t, ts.URL+"/v1/delete", map[string]any{"ids": []int64{int64(1000 + w*iters + i - 1)}})
				}
			}
		}(w)
	}
	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (g + i) % 4 {
				case 0:
					resp, _ := get(t, ts.URL+"/statusz", nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("statusz: status %d", resp.StatusCode)
					}
				case 1:
					resp, _ := get(t, ts.URL+"/metrics", nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("metrics: status %d", resp.StatusCode)
					}
				case 2:
					get(t, ts.URL+"/debug/traces", nil)
				case 3:
					get(t, ts.URL+"/debug/trace", nil) // may 404 before first retention
				}
			}
		}(g)
	}
	wg.Wait()

	// The page must still parse strictly after the storm, and the
	// filter ledger must still conserve.
	parseProm(t, scrapeMetrics(t, ts.URL))
	st := s.Status()
	if !st.Filters.Conserved() {
		t.Errorf("filter ledger violated conservation under concurrent load: %+v", st.Filters)
	}
	if st.Traces.SampledTotal == 0 {
		t.Errorf("no traces head-sampled at N=2 under load")
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestLocalSearchMissAllocs pins what an unsampled cache miss allocates
// around the sweep, which shard.TestQueriesAllocationFree holds at 0:
// the cache key, the epoch vector, the one-query slice, the result list
// and, when there are hits, their copy out of the pooled arena. With the
// cache disabled every call is a miss. Handing each miss to a dispatcher
// goroutine, as the server did before, cost one more: 6 allocs/op
// without hits and 7 with three.
func TestLocalSearchMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts over a sync.Pool are random under -race")
	}
	rng := rand.New(rand.NewSource(84))
	const k = 8
	// Keep shards below the re-pivot threshold so no background rebuild
	// allocates mid-measurement.
	rs := testutil.RandDataset(rng, 10, k, 40)
	idx := shard.New(shard.Config{Shards: 2, PivotsPerShard: 4, Seed: 1})
	for _, r := range rs {
		if err := idx.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Index: idx, CacheSize: -1, WindowInterval: -1})
	defer s.Close()

	// A random query has no exact match, so at distance 0 the sweep runs
	// end to end and emits nothing.
	q, err := rankings.New(shard.NoExclude, testutil.RandRanking(rng, 0, k, 40).Items)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		q      shard.Query
		hits   int
		allocs float64
	}{
		{"no-hit search", shard.Query{R: q, MaxDist: 0, Exclude: shard.NoExclude}, 0, 5},
		{"3-hit kNN", shard.Query{R: rs[0], KNN: 3, Exclude: shard.NoExclude}, 3, 6},
	} {
		run := func() {
			hits, cached, err := s.localSearch(context.Background(), c.q)
			if err != nil || cached || len(hits) != c.hits {
				t.Fatalf("%s: %d hits, cached %v, err %v; want %d fresh hits", c.name, len(hits), cached, err, c.hits)
			}
		}
		run() // warm the pooled arena to this query's shape
		if avg := testing.AllocsPerRun(100, run); avg > c.allocs {
			t.Errorf("%s: %.0f allocs/op, want <= %.0f; find it with: go build -gcflags=-m ./internal/server 2>&1 | grep -E 'escapes|moved to heap'", c.name, avg, c.allocs)
		}
	}
}

// TestObservePathAllocationFree pins the per-request accounting the
// route wrapper does on every (unsampled) request: endpoint stats and
// status mapping must not allocate.
func TestObservePathAllocationFree(t *testing.T) {
	st := &endpointStats{}
	st.observe(time.Millisecond, false) // warm the histogram
	if avg := testing.AllocsPerRun(100, func() {
		st.started.Add(1)
		st.observe(123*time.Microsecond, false)
		if statusOf(nil) != http.StatusOK {
			t.Fatal("statusOf(nil)")
		}
	}); avg != 0 {
		t.Errorf("per-request accounting: %.2f allocs/op, want 0; find it with: go build -gcflags=-m ./internal/server 2>&1 | grep -E 'escapes|moved to heap'", avg)
	}
}

// BenchmarkTelemetryOverheadGuard is the DESIGN §12 contract as a build
// gate: serving-plane telemetry at production defaults (head and tail
// sampling, window loop, request ids) costs under 2 % (plus 25 ms of
// timer-noise slack across the run) over telemetry fully disabled. Two
// fresh servers over one index replay the same 4 000 pre-marshalled
// requests through Handler(), so cache behaviour and coalescing match,
// and they take turns a hundred requests at a time. On a shared machine
// one whole replay is off by ±10 % from the next and single requests
// stall for milliseconds, so totals decide nothing. The verdict is a
// sign test over the 1 280 turns of thirty-two replays: the gate fails
// when the telemetry side is over budget in significantly more than
// half (two standard deviations of a fair coin), so however noisy the
// machine, telemetry within budget fails less than one run in forty. A
// benchmark and not a test, so `go test ./...` never asserts a timing;
// CI runs it with `-run '^$' -bench OverheadGuard -benchtime 1x`.
func BenchmarkTelemetryOverheadGuard(b *testing.B) {
	const (
		replays  = 32
		requests = 4000
		turn     = 100 // requests one side serves before the other takes over
		turns    = replays * requests / turn
		slack    = 25 * time.Millisecond / turns
	)
	data := testutil.ClusteredDataset(rand.New(rand.NewSource(7)), 400, 5, 10, 300)
	idx := shard.New(shard.Config{})
	for _, r := range data {
		if err := idx.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	var paths [requests]string
	var bodies [requests][]byte
	qrng := rand.New(rand.NewSource(11))
	for i := range bodies {
		id := data[qrng.Intn(len(data))].ID
		if i%2 == 0 {
			paths[i], bodies[i] = "/v1/search", []byte(fmt.Sprintf(`{"id":%d,"theta":0.25}`, id))
		} else {
			paths[i], bodies[i] = "/v1/knn", []byte(fmt.Sprintf(`{"id":%d,"k":10}`, id))
		}
	}
	// replay adds each side's serving time to total (0 is telemetry
	// off, 1 is defaults) and returns how many turns ran over budget.
	replay := func(total *[2]time.Duration) (over int) {
		var hs [2]http.Handler
		for side, cfg := range [2]Config{
			{Index: idx, TraceSampleEvery: -1, SlowThreshold: -1, WindowInterval: -1},
			{Index: idx},
		} {
			srv := New(cfg)
			defer srv.Close()
			hs[side] = srv.Handler()
		}
		for lo := 0; lo < requests; lo += turn {
			var spent [2]time.Duration
			for t := 0; t < 2; t++ {
				side := (lo/turn + t) % 2 // who goes first alternates too
				start := time.Now()
				for i := lo; i < lo+turn; i++ {
					rec := httptest.NewRecorder()
					hs[side].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, paths[i], bytes.NewReader(bodies[i])))
					if rec.Code != http.StatusOK {
						b.Fatalf("%s: status %d (%s)", paths[i], rec.Code, rec.Body.Bytes())
					}
				}
				spent[side] = time.Since(start)
				total[side] += spent[side]
			}
			if spent[1] > spent[0]+spent[0]/50+slack {
				over++
			}
		}
		return over
	}
	for i := 0; i < b.N; i++ {
		var total [2]time.Duration
		over := 0
		for r := 0; r < replays; r++ {
			over += replay(&total)
		}
		if float64(over) > turns/2+math.Sqrt(turns) {
			b.Fatalf("telemetry over budget in %d of %d turns (%v vs %v disabled in total)",
				over, turns, total[1], total[0])
		}
		b.ReportMetric(float64(total[1])/float64(total[0]), "enabled/disabled")
		b.ReportMetric(float64(over)/turns, "turns-over")
	}
}
