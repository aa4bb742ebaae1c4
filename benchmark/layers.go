package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rankjoin"
	"rankjoin/internal/cluster"
	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// perLayer is what the traced run reports, one group per module. Every
// number comes from timing calls into that module's public functions,
// or from counters the module already exports; no timer or span is
// added inside the program. Metrics in "count" repeat exactly within a
// process and are asserted equal between a traced and an untraced pass.
var perLayer = []metricDef{
	{name: "rankings.footrule_k10_ns", unit: "ns"},
	{name: "rankings.footrule_within_k10_ns", unit: "ns"},

	{name: "filters.signature_prune_ns", unit: "ns"},
	{name: "filters.cl_generated", unit: "count"},
	{name: "filters.vj_generated", unit: "count"},
	{name: "filters.cl_pruned_share", unit: "share", higher: true},
	{name: "filters.vj_pruned_share", unit: "share", higher: true},
	{name: "filters.cl_verified_per_pair", unit: "ratio"},
	{name: "filters.vj_verified_per_pair", unit: "ratio"},
	{name: "filters.conserved", unit: "count", higher: true},

	{name: "vj.index_over_nl", unit: "ratio"},
	{name: "core.ordering_s", unit: "s"},
	{name: "core.clustering_s", unit: "s"},
	{name: "core.joining_s", unit: "s"},
	{name: "core.expansion_s", unit: "s"},
	{name: "core.clp_over_cl", unit: "ratio"},
	{name: "core.suggested_delta", unit: "count", higher: true},

	{name: "flow.cl_shuffle_records", unit: "count"},
	{name: "flow.vj_shuffle_records", unit: "count"},
	{name: "flow.max_partition_records", unit: "count"},
	{name: "flow.tasks", unit: "count"},
	{name: "flow.shuffle_inclusive_s", unit: "s"},
	{name: "flow.dedup_s", unit: "s"},
	{name: "flow.partition_by_key_mb_per_s", unit: "MB/s", higher: true},

	{name: "shard.search_us", unit: "us"},
	{name: "shard.knn_us", unit: "us"},
	{name: "shard.batch8_us_per_query", unit: "us"},
	{name: "shard.insert_us", unit: "us"},
	{name: "shard.delete_us", unit: "us"},
	{name: "shard.allocs_per_search", unit: "count"},
	{name: "shard.pruned_signature_share", unit: "share", higher: true},
	{name: "shard.pruned_triangle_share", unit: "share", higher: true},
	{name: "shard.verified_per_hit", unit: "ratio"},
	{name: "shard.repivots", unit: "count"},

	{name: "server.handler_search_us", unit: "us"},
	{name: "server.handler_knn_us", unit: "us"},
	{name: "server.self_search_us", unit: "us"},
	{name: "server.cache_hit_us", unit: "us"},
	{name: "server.cache_hit_ratio", unit: "share", higher: true},
	{name: "server.batch_mean_size", unit: "count", higher: true},
	{name: "server.coalesced_share", unit: "share", higher: true},
	{name: "server.http_self_us", unit: "us"},
	{name: "server.handler_insert_us", unit: "us"},

	{name: "wal.commit_wait_us", unit: "us"},
	{name: "wal.fsync_p50_us", unit: "us"},
	{name: "wal.fsync_p99_us", unit: "us"},
	{name: "wal.ack_p99_ms", unit: "ms"},
	{name: "wal.records_per_fsync", unit: "count", higher: true},
	{name: "wal.bytes_per_record", unit: "B"},
	{name: "wal.bytes_per_user_byte", unit: "ratio"},
	{name: "wal.snapshot_ms", unit: "ms"},
	{name: "wal.snapshot_mb_per_s", unit: "MB/s", higher: true},
	{name: "wal.snapshot_read_p99_ms", unit: "ms"},
	{name: "wal.recovery_ms", unit: "ms"},
	{name: "wal.recover_records_per_s", unit: "1/s", higher: true},
	{name: "wal.records_since_us", unit: "us"},

	{name: "cluster.scatter_search_us", unit: "us"},
	{name: "cluster.scatter_knn_us", unit: "us"},
	{name: "cluster.peer_rpc_us", unit: "us"},
	{name: "cluster.merge_us", unit: "us"},
	{name: "cluster.scatter_over_single", unit: "ratio"},
	{name: "cluster.hedges_per_request", unit: "ratio"},
	{name: "cluster.partial_share", unit: "share"},
	{name: "cluster.join_frames", unit: "count"},
	{name: "cluster.join_wire_bytes", unit: "B"},
	{name: "cluster.join_wire_over_local", unit: "ratio"},

	{name: "bench.trace_overhead_share", unit: "share"},
	{name: "bench.search_p50_ms", unit: "ms"},
	{name: "bench.read_p99_ms", unit: "ms"},
	{name: "bench.layers_over_search_p50", unit: "ratio"},
	{name: "bench.failed_share", unit: "share"},
	{name: "bench.gomaxprocs", unit: "count", higher: true},
	{name: "bench.clients", unit: "count", higher: true},
}

// tracer is the traced run's state: the workload as set up, a second
// stack of the other topology holding the same rankings (so every
// workload can replay through a single node and through a cluster),
// the span recorder and the result being filled.
type tracer struct {
	sc     *scenario
	opt    options
	res    *result
	rec    *recorder
	single *stack
	fleet  *stack
}

func (t *tracer) set(name string, v float64) { t.res.set(perLayer, name, v) }

func (t *tracer) budget(share float64) time.Duration {
	return time.Duration(share * t.opt.seconds * float64(time.Second))
}

// tracedRun produces the per-layer metrics and writes the spans as a
// Chrome trace to <out>/trace_<workload>.json.
func tracedRun(sc *scenario, opt options, res *result) error {
	other := *sc.w
	other.peers = 3
	if sc.st.fleet != nil {
		other.peers = 1
	}
	alt, err := bootStack(&other, sc.in, filepath.Join(sc.dir, "alt"), parallelism())
	if err != nil {
		return fmt.Errorf("second stack: %w", err)
	}
	t := &tracer{sc: sc, opt: opt, res: res, rec: newRecorder(), single: sc.st, fleet: alt}
	if sc.st.fleet != nil {
		t.single, t.fleet = alt, sc.st
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"kernels", t.kernels},
		{"joins", t.joins},
		{"flow probe", t.flowProbe},
		{"replay", t.replay},
		{"bursts", t.bursts},
		{"writes", t.writes},
		{"wire join", t.wireJoin},
		{"recovery", t.recovery},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	t.set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	t.set("bench.clients", float64(parallelism()))
	t.set("bench.failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	path := filepath.Join(opt.outDir, "trace_"+sc.w.name+".json")
	if err := t.rec.writeChrome(path); err != nil {
		return err
	}
	res.note("%d spans written to %s", len(t.rec.spans), path)
	return nil
}

// --- rankings, filters: the kernels on the fixed pair sample ---

func (t *tracer) kernels() error {
	sp := t.rec.begin("rankings", "kernel probes", -1, 0)
	defer t.rec.end(sp)
	t.set("rankings.footrule_k10_ns", kernelProbe(rankings.Footrule))
	maxDist := maxDistFor(t.sc.w.theta, rankK)
	t.set("rankings.footrule_within_k10_ns", kernelProbe(func(a, b *rankings.Ranking) int {
		d, _ := rankings.FootruleWithin(a, b, maxDist)
		return d
	}))
	t.set("filters.signature_prune_ns", kernelProbe(func(a, b *rankings.Ranking) int {
		sa, pa := a.Signature()
		sb, pb := b.Signature()
		if filters.SignaturePrune(sa, pa, sb, pb, rankK, maxDist) { //ranklint:ignore a timing probe of the bare filter: it joins nothing, so there is no ledger to tally into
			return 1
		}
		return 0
	}))
	return nil
}

// --- filters, vj, core, flow: the joins taken apart ---

func (t *tracer) joins() error {
	w, in := t.sc.w, t.sc.in
	local := func(alg rankjoin.Algorithm) (*rankjoin.Result, error) {
		return t.sc.eng.Join(in.joinData, rankjoin.Options{Algorithm: alg, Theta: w.theta})
	}
	parent := t.rec.begin("join", "joins", -1, 0)
	defer t.rec.end(parent)
	secs := map[rankjoin.Algorithm]float64{}
	results := map[rankjoin.Algorithm]*rankjoin.Result{}
	for i, a := range joinAlgs {
		if a.alg != rankjoin.AlgCLP { // CL has just warmed CL-P's code
			if _, err := local(a.alg); err != nil {
				return err
			}
		}
		sp := t.rec.begin("join", "join/"+a.alg.String(), parent, i)
		t0 := time.Now()
		res, err := local(a.alg)
		secs[a.alg] = time.Since(t0).Seconds()
		t.rec.end(sp)
		if err != nil {
			return err
		}
		results[a.alg] = res
	}
	cl, vjr := results[rankjoin.AlgCL], results[rankjoin.AlgVJ]

	// The same joins with the engine's own tracer attached must count
	// exactly what they counted without it.
	t.sc.eng.SetTracer(rankjoin.NewTracer())
	for _, alg := range []rankjoin.Algorithm{rankjoin.AlgCL, rankjoin.AlgVJ} {
		traced, err := local(alg)
		if err != nil {
			return err
		}
		plain := results[alg]
		t.res.Attempted++
		if traced.Filters != plain.Filters || traced.Engine.ShuffleRecords != plain.Engine.ShuffleRecords ||
			traced.Engine.Tasks != plain.Engine.Tasks || len(traced.Pairs) != len(plain.Pairs) {
			t.res.count(0, 1, []string{fmt.Sprintf("%v counts differ between the traced and the untraced join", alg)})
		}
	}
	t.sc.eng.SetTracer(nil)

	pruned := func(f rankjoin.FilterStats) float64 {
		return ratio(float64(f.PrunedPrefix+f.PrunedSignature+f.PrunedPosition+f.PrunedTriangle), float64(f.Generated))
	}
	conserved := 0.0
	if cl.Filters.Conserved() && vjr.Filters.Conserved() {
		conserved = 1
	}
	t.set("filters.cl_generated", float64(cl.Filters.Generated))
	t.set("filters.vj_generated", float64(vjr.Filters.Generated))
	t.set("filters.cl_pruned_share", pruned(cl.Filters))
	t.set("filters.vj_pruned_share", pruned(vjr.Filters))
	t.set("filters.cl_verified_per_pair", ratio(float64(cl.Filters.Verified), float64(len(cl.Pairs))))
	t.set("filters.vj_verified_per_pair", ratio(float64(vjr.Filters.Verified), float64(len(vjr.Pairs))))
	t.set("filters.conserved", conserved)

	t.set("vj.index_over_nl", secs[rankjoin.AlgVJ]/secs[rankjoin.AlgVJNL])
	for _, stage := range []string{"ordering", "clustering", "joining", "expansion"} {
		t.set("core."+stage+"_s", cl.Engine.Stages["cl/"+stage].Seconds())
	}
	t.set("core.clp_over_cl", secs[rankjoin.AlgCLP]/secs[rankjoin.AlgCL])
	delta, err := rankjoin.SuggestDelta(in.joinData, w.theta)
	if err != nil {
		return err
	}
	t.set("core.suggested_delta", float64(delta))

	t.set("flow.cl_shuffle_records", float64(cl.Engine.ShuffleRecords))
	t.set("flow.vj_shuffle_records", float64(vjr.Engine.ShuffleRecords))
	t.set("flow.max_partition_records", float64(cl.Engine.MaxPartitionRecords))
	t.set("flow.tasks", float64(cl.Engine.Tasks))
	t.set("flow.shuffle_inclusive_s", cl.Engine.ShuffleTime.Seconds())
	t.set("flow.dedup_s", cl.Engine.Stages["join/dedup"].Seconds())
	return nil
}

// flowProbe times the raw hash-partitioned exchange on 256k 16-byte
// records, the substrate under every wide transformation.
func (t *tracer) flowProbe() error {
	const records, parts = 1 << 18, 16
	kvs := make([]flow.KV[int64, int64], records)
	for i := range kvs {
		kvs[i] = flow.KV[int64, int64]{K: int64(i), V: int64(i)}
	}
	var times []float64
	for rep := 0; rep < 4; rep++ {
		ctx := flow.NewContext(flow.Config{Workers: parallelism()})
		sp := t.rec.begin("flow", "PartitionByKey", -1, rep)
		t0 := time.Now()
		n, err := flow.PartitionByKey(flow.Parallelize(ctx, kvs, parts), parts).Count()
		d := time.Since(t0)
		t.rec.end(sp)
		if cerr := ctx.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if n != records {
			return fmt.Errorf("exchange returned %d of %d records", n, records)
		}
		if rep > 0 { // the first pass warms up
			times = append(times, d.Seconds())
		}
	}
	t.set("flow.partition_by_key_mb_per_s", float64(records*16)/1e6/median(times))
	return nil
}

// --- shard, server, cluster: the layered replay ---

const replayQueries = 200 // per pass; each is replayed as a search and as a kNN

// pass replays qs through call, one span per call under one parent
// span, and returns the median microseconds of the searches and of the
// kNNs.
func (t *tracer) pass(layer, name string, qs []*rankings.Ranking, call func(q *rankings.Ranking, knn bool) error) (searchUS, knnUS float64, err error) {
	parent := t.rec.begin(layer, name, -1, 0)
	defer t.rec.end(parent)
	var lat [2][]float64
	for i, q := range qs {
		for kind, knn := range []bool{false, true} {
			sp := t.rec.begin(layer, name, parent, i)
			t0 := time.Now()
			err := call(q, knn)
			d := time.Since(t0)
			t.rec.end(sp)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: query %d: %w", name, q.ID, err)
			}
			lat[kind] = append(lat[kind], us(d))
		}
	}
	return median(lat[0]), median(lat[1]), nil
}

// serveDirect calls the handler with a recorder: everything the server
// does for a request except the socket.
func serveDirect(h http.Handler, path string, body []byte) error {
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rw.Code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rw.Code, strings.TrimSpace(rw.Body.String()))
	}
	return nil
}

// replay sends the same seeded queries, single-threaded, through four
// depths of the same rankings: the shard sweep, the handler, loopback
// HTTP, and a scatter through peer 0 of a three-peer cluster. A layer's
// self time is its depth minus the depth below.
func (t *tracer) replay() error {
	in := t.sc.in
	var ids []*rankings.Ranking
	for _, p := range newRNG(uint64(t.opt.seed)<<8 | 5).perm(len(in.data)) {
		if r := in.data[p]; readable(r.ID) {
			ids = append(ids, r)
		}
	}
	n := min(replayQueries, len(ids)/2)
	warm, a := ids[:n], ids[n:2*n]
	maxDist := maxDistFor(searchTheta, rankK)
	idx, handler := t.single.idx, t.single.srv.Handler()
	cl := newClients(1)[0]
	var reply readReply

	// Depth 1: the shard sweep, into a reused arena as the server's
	// dispatcher holds one.
	batch := idx.NewBatch()
	sweep := func(q *rankings.Ranking, knn bool) error {
		var err error
		if knn {
			_, err = batch.KNNInto(q, knnK, q.ID)
		} else {
			_, err = batch.SearchInto(q, maxDist, q.ID)
		}
		return err
	}
	if _, _, err := t.pass("shard", "warm-up", warm, sweep); err != nil {
		return err
	}
	before := idx.Filters().Snapshot()
	shardSearch, shardKNN, err := t.pass("shard", "Batch.SearchInto/KNNInto", a, sweep)
	if err != nil {
		return err
	}
	f := idx.Filters().Snapshot()
	generated := float64(f.Generated - before.Generated)
	t.set("shard.search_us", shardSearch)
	t.set("shard.knn_us", shardKNN)
	t.set("shard.pruned_signature_share", ratio(float64(f.PrunedSignature-before.PrunedSignature), generated))
	t.set("shard.pruned_triangle_share", ratio(float64(f.PrunedTriangle-before.PrunedTriangle), generated))
	t.set("shard.verified_per_hit", ratio(float64(f.Verified-before.Verified), float64(f.Emitted-before.Emitted)))

	// One fused sweep of eight queries (seven searches and a kNN).
	var fused []float64
	for i := 0; i+8 <= len(a); i += 8 {
		qs := make([]shard.Query, 8)
		for j, q := range a[i : i+8] {
			qs[j] = shard.Query{R: q, MaxDist: maxDist, Exclude: q.ID}
		}
		qs[7].KNN = knnK
		sp := t.rec.begin("shard", "Batch.SearchBatchInto", -1, i)
		t0 := time.Now()
		_, err := batch.SearchBatchInto(qs, nil)
		d := time.Since(t0)
		t.rec.end(sp)
		if err != nil {
			return err
		}
		fused = append(fused, us(d)/8)
	}
	t.set("shard.batch8_us_per_query", median(fused))

	// Steady-state allocations of one sweep: the arena contract says 0,
	// and one allocation in allocRuns sweeps already breaks it. The count
	// is the process's, so a timer or a log ticker of the idle stacks can
	// add to it; what the sweeps allocate themselves shows in every one
	// of three attempts, and the lowest is kept.
	const allocRuns = 100
	mallocs := uint64(math.MaxUint64)
	for attempt := 0; attempt < 3; attempt++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocRuns; i++ {
			if _, err := batch.SearchInto(a[i%len(a)], maxDist, a[i%len(a)].ID); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&m1)
		mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
	}
	t.set("shard.allocs_per_search", float64(mallocs)/allocRuns)
	t.res.Attempted++
	if mallocs > 0 {
		t.res.count(0, 1, []string{fmt.Sprintf("Batch.SearchInto allocated %d times in %d steady-state sweeps", mallocs, allocRuns)})
	}

	// Depth 2: the handler. The first pass misses the query cache
	// (batcher + cache lookup + JSON on top of the sweep); the second
	// pass of the same requests hits it.
	direct := func(q *rankings.Ranking, knn bool) error {
		_, path, body := readRequest(nil, query{id: q.ID, knn: knn})
		return serveDirect(handler, path, body)
	}
	if _, _, err := t.pass("server", "warm-up", warm, direct); err != nil {
		return err
	}
	handlerSearch, handlerKNN, err := t.pass("server", "Handler.ServeHTTP miss", a, direct)
	if err != nil {
		return err
	}
	hitDirect, _, err := t.pass("server", "Handler.ServeHTTP hit", a, direct)
	if err != nil {
		return err
	}
	t.set("server.handler_search_us", handlerSearch)
	t.set("server.handler_knn_us", handlerKNN)
	t.set("server.self_search_us", handlerSearch-shardSearch)
	t.set("server.cache_hit_us", hitDirect)

	// Depth 3: loopback HTTP with the benchmark's client, the same
	// requests again. One insert and delete of a ranking nobody reads
	// moves a shard epoch and so empties the query cache without
	// changing what the index holds; the requests miss as they did at
	// depth 2, and the difference is what the socket, net/http and the
	// client's JSON decode add to a miss. (On a hit they add less: the
	// note below gives both.)
	overHTTP := func(url string) func(q *rankings.Ranking, knn bool) error {
		return func(q *rankings.Ranking, knn bool) error {
			_, err := cl.read(url, query{id: q.ID, knn: knn}, &reply)
			return err
		}
	}
	if _, _, err := t.pass("http", "warm-up", warm, overHTTP(t.single.url)); err != nil {
		return err
	}
	hitHTTP, _, err := t.pass("http", "loopback hit", a, overHTTP(t.single.url))
	if err != nil {
		return err
	}
	nobody := mustRanking(missBase-1, a[0].Items)
	if err := idx.Insert(nobody); err != nil {
		return err
	}
	if _, err := idx.Delete(nobody.ID); err != nil {
		return err
	}
	singleSearch, _, err := t.pass("http", "loopback miss", a, overHTTP(t.single.url))
	if err != nil {
		return err
	}
	t.set("server.http_self_us", singleSearch-handlerSearch)
	t.res.note("single-node loopback search %.1f us = shard %.1f + server self %.1f + http self %.1f; on a cache hit http adds %.1f us to the handler's %.1f",
		singleSearch, shardSearch, handlerSearch-shardSearch, singleSearch-handlerSearch, hitHTTP-hitDirect, hitDirect)

	// Depth 4: the same requests scattered through peer 0.
	fleet := t.fleet.fleet
	if _, _, err := t.pass("cluster", "warm-up", warm, overHTTP(t.fleet.url)); err != nil {
		return err
	}
	st0 := fleet.Peers[0].Cluster.StatusSnapshot()
	scatterSearch, scatterKNN, err := t.pass("cluster", "scatter via peer 0", a, overHTTP(t.fleet.url))
	if err != nil {
		return err
	}
	st1 := fleet.Peers[0].Cluster.StatusSnapshot()
	var hedges int64
	for i := range st1.Peers {
		hedges += st1.Peers[i].Hedges - st0.Peers[i].Hedges
	}
	requests := float64(2 * len(a))
	t.set("cluster.scatter_search_us", scatterSearch)
	t.set("cluster.scatter_knn_us", scatterKNN)
	t.set("cluster.scatter_over_single", scatterSearch/singleSearch)
	t.set("cluster.hedges_per_request", float64(hedges)/requests)
	t.set("cluster.partial_share", float64(st1.Partials-st0.Partials)/requests)

	// One peer RPC, and the merge of the three peers' answers.
	c0 := fleet.Peers[0].Cluster
	ctx := context.Background()
	var rpc, merge []float64
	for i, q := range a {
		req := cluster.SearchReq{Items: q.Items, KNN: knnK, Exclude: q.ID}
		var hits []shard.Neighbor
		for p := 1; p < c0.Size(); p++ {
			sp := t.rec.begin("cluster", "SearchPeer", -1, i)
			t0 := time.Now()
			resp, err := c0.SearchPeer(ctx, p, req)
			rpc = append(rpc, us(time.Since(t0)))
			t.rec.end(sp)
			if err != nil {
				return fmt.Errorf("SearchPeer: %w", err)
			}
			hits = append(hits, resp.Hits...)
		}
		own, err := fleet.Peers[0].Index.KNN(q, knnK, q.ID)
		if err != nil {
			return err
		}
		hits = append(hits, own...)
		sp := t.rec.begin("cluster", "MergeHits", -1, i)
		t0 := time.Now()
		merged := cluster.MergeHits(hits, knnK)
		merge = append(merge, us(time.Since(t0)))
		t.rec.end(sp)
		t.res.Attempted++
		if want := bruteForceRead(in.data, in.domain, q, true, 0); !equalHits(merged, want) {
			t.res.count(0, 1, []string{fmt.Sprintf("merged kNN of %d differs from brute force", q.ID)})
		}
	}
	t.set("cluster.peer_rpc_us", median(rpc))
	t.set("cluster.merge_us", median(merge))
	return nil
}

// --- server, bench: the workload's own read mix, traced and untraced ---

func (t *tracer) bursts() error {
	in, st := t.sc.in, t.sc.st
	dur := t.budget(0.08)
	burst := func(rec *recorder) (loadStats, []*client) {
		cs := newClients(parallelism())
		loadPhase(cs, st.url, in, dur, 0, rec, 0, nil)
		var ls loadStats
		ls.addWindow(cs, dur, func(opKind) bool { return true })
		return ls, cs
	}
	burst(nil) // fill the cache as the untraced run's warm-up does
	s0 := st.srv.Status()
	traced, cs := burst(t.rec)
	s1 := st.srv.Status()
	failed, notes := checkReads(cs, in, in.data)
	t.res.count(0, failed, notes)
	for _, cl := range cs {
		t.res.count(cl.reads, cl.failed, cl.notes)
	}
	untraced, _ := burst(nil)

	lookups := float64(s1.Cache.Hits + s1.Cache.Misses - s0.Cache.Hits - s0.Cache.Misses)
	sweeps := float64(s1.Batch.Sweeps - s0.Batch.Sweeps)
	swept := s1.Batch.MeanSize*float64(s1.Batch.Sweeps) - s0.Batch.MeanSize*float64(s0.Batch.Sweeps)
	t.set("server.cache_hit_ratio", ratio(float64(s1.Cache.Hits-s0.Cache.Hits), lookups))
	t.set("server.batch_mean_size", ratio(swept, sweeps))
	t.set("server.coalesced_share", ratio(float64(s1.Batch.Coalesced-s0.Batch.Coalesced), swept))
	t.set("bench.trace_overhead_share", 1-traced.qps[0]/untraced.qps[0])

	// The layers of one search, summed, against what the closed-loop
	// clients see untraced.
	m := t.res.Metrics
	layers := m["shard.search_us"].Value + m["server.self_search_us"].Value + m["server.http_self_us"].Value
	if st.fleet != nil {
		layers = m["cluster.scatter_search_us"].Value
	}
	t.set("bench.search_p50_ms", untraced.p50[opSearch][0])
	t.set("bench.read_p99_ms", untraced.p99[0])
	t.set("bench.layers_over_search_p50", layers/1e3/untraced.p50[opSearch][0])
	return nil
}

// --- shard, server, wal: the write path ---

const writeProbes = 100

func (t *tracer) writes() error {
	in, st := t.sc.in, t.single
	// Inserts and deletes the client phases never reach: the tail of
	// the write list.
	var fresh []*rankings.Ranking
	for i := len(in.writes) - 1; len(fresh) < 3*writeProbes; i-- {
		if op := in.writes[i]; !op.del {
			fresh = append(fresh, in.byID[op.id])
		}
	}
	timed := func(layer, name string, rs []*rankings.Ranking, call func(r *rankings.Ranking) error) (float64, error) {
		parent := t.rec.begin(layer, name, -1, 0)
		defer t.rec.end(parent)
		var lat []float64
		for i, r := range rs {
			sp := t.rec.begin(layer, name, parent, i)
			t0 := time.Now()
			err := call(r)
			lat = append(lat, us(time.Since(t0)))
			t.rec.end(sp)
			if err != nil {
				return 0, fmt.Errorf("%s %d: %w", name, r.ID, err)
			}
		}
		return median(lat), nil
	}

	// The shard alone: an index holding the same rankings, no log.
	plain := shard.New(shard.Config{Shards: indexShards, PivotsPerShard: 8, Seed: 1})
	for _, r := range in.data {
		if err := plain.Insert(r); err != nil {
			return err
		}
	}
	if err := waitForPivots([]*shard.Index{plain}); err != nil {
		return err
	}
	plainInsert, err := timed("shard", "Index.Insert", fresh[:writeProbes], plain.Insert)
	if err != nil {
		return err
	}
	plainDelete, err := timed("shard", "Index.Delete", fresh[:writeProbes], func(r *rankings.Ranking) error {
		_, err := plain.Delete(r.ID)
		return err
	})
	if err != nil {
		return err
	}
	t.set("shard.insert_us", plainInsert)
	t.set("shard.delete_us", plainDelete)

	// The same insert acknowledged after its group-commit fsync, first
	// at the index, then through the handler.
	durable, err := timed("wal", "durable Index.Insert", fresh[writeProbes:2*writeProbes], st.idx.Insert)
	if err != nil {
		return err
	}
	t.set("wal.commit_wait_us", durable-plainInsert)
	handler := st.srv.Handler()
	viaHandler, err := timed("server", "Handler.ServeHTTP insert", fresh[2*writeProbes:], func(r *rankings.Ranking) error {
		cl := client{}
		cl.insertBody(writeOp{id: r.ID, items: r.Items})
		return serveDirect(handler, "/v1/insert", cl.body)
	})
	if err != nil {
		return err
	}
	t.set("server.handler_insert_us", viaHandler)

	// A snapshot while the clients read: what the background work does
	// to the reads beside it.
	dur := t.budget(0.08)
	cs := newClients(parallelism())
	var snapStart, snapEnd time.Duration
	var snapErr error
	began := time.Now()
	loadPhase(cs, st.url, in, dur, 0, t.rec, 0.3, func() {
		sp := t.rec.begin("wal", "SnapshotAll", -1, 0)
		snapStart = time.Since(began)
		snapErr = st.mgr.SnapshotAll(st.idx)
		snapEnd = time.Since(began)
		t.rec.end(sp)
	})
	if snapErr != nil {
		return snapErr
	}
	var beside []float64
	for _, cl := range cs {
		for _, s := range cl.samples {
			if s.done >= snapStart && s.done-s.lat <= snapEnd {
				beside = append(beside, ms(s.lat))
			}
		}
	}
	if len(beside) == 0 {
		return fmt.Errorf("no read overlapped the snapshot")
	}
	snapBytes, err := snapshotBytes(st.walDir)
	if err != nil {
		return err
	}
	snap := snapEnd - snapStart
	t.set("wal.snapshot_ms", ms(snap))
	t.set("wal.snapshot_mb_per_s", float64(snapBytes)/1e6/snap.Seconds())
	sort.Float64s(beside)
	t.set("wal.snapshot_read_p99_ms", quantile(beside, 0.99))
	t.res.note("wal.snapshot_read_p99_ms over %d reads beside a %.1f ms snapshot of %d bytes", len(beside), ms(snap), snapBytes)

	// Group commit under the closed-loop writers, and the re-pivots
	// their churn sets off.
	repivots := func() (n int64) {
		for _, s := range st.idx.Stats() {
			n += s.RePivots
		}
		return n
	}
	epochs := st.idx.Epochs()
	w0, r0 := st.mgr.Stats(), repivots()
	loadPhase(cs, st.url, in, dur, len(cs), t.rec, 0, nil)
	w1 := st.mgr.Stats()
	t.set("shard.repivots", float64(repivots()-r0))
	userBytes := 0
	for _, cl := range cs {
		t.res.count(cl.reads+cl.writes, cl.failed, cl.notes)
		for _, a := range cl.acked {
			userBytes += 8 + 4*len(in.writes[a.op].items)
		}
	}
	var acks loadStats
	acks.addWindow(cs, dur, opKind.write)
	t.set("wal.ack_p99_ms", acks.p99[0])
	records := float64(w1.Records - w0.Records)
	appended := float64(w1.AppendedBytes - w0.AppendedBytes)
	fsyncs := w1.FsyncMicros.Sub(w0.FsyncMicros)
	t.set("wal.fsync_p50_us", histQuantile(fsyncs, 0.50))
	t.set("wal.fsync_p99_us", histQuantile(fsyncs, 0.99))
	t.set("wal.records_per_fsync", ratio(records, float64(w1.Fsyncs-w0.Fsyncs)))
	t.set("wal.bytes_per_record", ratio(appended, records))
	t.set("wal.bytes_per_user_byte", ratio(appended, float64(userBytes)))

	// The replica catch-up read: each shard's records since the burst
	// began.
	var since []float64
	for i, e := range epochs {
		sp := t.rec.begin("wal", "RecordsSince", -1, i)
		t0 := time.Now()
		_, ok, err := st.mgr.RecordsSince(i, e)
		since = append(since, us(time.Since(t0)))
		t.rec.end(sp)
		if err != nil || !ok {
			return fmt.Errorf("RecordsSince(%d, %d): ok=%v err=%v", i, e, ok, err)
		}
	}
	t.set("wal.records_since_us", median(since))
	return nil
}

// histQuantile estimates the q-quantile of one of the program's
// power-of-two histograms by placing the observations of a bucket
// evenly across it (the program's own Quantile returns the bucket's
// upper edge, which reads 511 or 1023 whatever the disk did).
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	target := q * float64(h.Count)
	seen := 0.0
	for i := 0; i <= 64; i++ {
		n := float64(h.Buckets[i])
		if n > 0 && seen+n >= target {
			lo, hi := 0.0, float64(obs.BucketUpper(i))
			if i > 0 {
				lo = float64(obs.BucketUpper(i - 1))
			}
			return min(lo+(hi-lo)*(target-seen)/n, float64(h.Max))
		}
		seen += n
	}
	return float64(h.Max)
}

// snapshotBytes sums the snapshot files under a WAL directory.
func snapshotBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".snap") {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// --- cluster: CL-P over the wire against the same join in process ---

const wireJoinN = 3000 // rankings the traced wire join takes, at most

func (t *tracer) wireJoin() error {
	w, in := t.sc.w, t.sc.in
	rs := in.joinData[:min(wireJoinN, len(in.joinData))]
	opts := rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: w.theta}
	c0 := t.fleet.fleet.Peers[0].Cluster
	var wire, local time.Duration
	var got, want *rankjoin.Result
	var frames, wireBytes int64
	for rep := 0; rep < 2; rep++ { // the first pass warms up
		before := c0.StatusSnapshot()
		sp := t.rec.begin("cluster", "DistributedJoin", -1, rep)
		t0 := time.Now()
		res, err := c0.DistributedJoin(context.Background(), rs, opts)
		wire = time.Since(t0)
		t.rec.end(sp)
		if err != nil {
			return err
		}
		after := c0.StatusSnapshot()
		got, frames, wireBytes = res, after.FramesSent-before.FramesSent, after.BytesSent-before.BytesSent

		sp = t.rec.begin("join", "join/CL-P", -1, rep)
		t0 = time.Now()
		res, err = t.sc.eng.Join(rs, opts)
		local = time.Since(t0)
		t.rec.end(sp)
		if err != nil {
			return err
		}
		want = res
	}
	t.res.Attempted++
	if pairsDigest(got.Pairs) != pairsDigest(want.Pairs) {
		t.res.count(0, 1, []string{"the distributed join's pairs differ from the local join's"})
	}
	t.set("cluster.join_frames", float64(frames))
	t.set("cluster.join_wire_bytes", float64(wireBytes))
	t.set("cluster.join_wire_over_local", wire.Seconds()/local.Seconds())
	return nil
}

// --- wal: crash and replay ---

func (t *tracer) recovery() error {
	st := t.single
	// Writes reached this index by three routes; what it holds now is
	// what recovery must bring back.
	want := map[int64]*rankings.Ranking{}
	all, _ := st.idx.Snapshot()
	for _, r := range all {
		want[r.ID] = r
	}
	t.fleet.crash()
	st.crash()
	t.sc.eng.Close()
	sp := t.rec.begin("wal", "Open+Recover", -1, 0)
	const recoveries = 5
	times, stats, failed, notes, err := recoverCopies(st, t.sc.dir, want, recoveries)
	t.rec.end(sp)
	if err != nil {
		return err
	}
	t.res.count(recoveries, failed, notes)
	t.set("wal.recovery_ms", median(times))
	t.set("wal.recover_records_per_s", float64(stats.RecordsReplayed)/(median(times)/1e3))
	t.res.note("recovery replayed %d records over %d snapshots in %.1f ms", stats.RecordsReplayed, stats.SnapshotsLoaded, median(times))
	return nil
}
