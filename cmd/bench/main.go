// Command bench measures the engine and kernel hot paths and emits a
// machine-readable JSON report, establishing the performance trajectory
// of the repository (BENCH_<n>.json per perf PR).
//
// It covers the three costs every algorithm in the paper bottoms out
// in:
//
//   - the Footrule verification kernel (flat merged-index path vs a
//     map-index reference implementation, the pre-overhaul design);
//   - the hash-partitioned shuffle of internal/flow (fused
//     scatter+gather);
//   - the final deduplication stage (map-side combining vs a naive
//     shuffle-everything reference), reported in records moved across
//     the exchange;
//   - one macro join per algorithm family with the engine's stage
//     timing snapshot, filter-effectiveness counters, and skew
//     histogram summaries (Bench 2).
//
// Observability flags (Bench 2):
//
//   - -trace-out FILE runs one traced CL-P macro join, exports the
//     span forest as Chrome trace-event JSON (load in Perfetto or
//     chrome://tracing), and fails unless the trace parses and
//     contains all four CL phase spans plus per-partition tasks;
//   - -guard benchmarks the macro join with tracing detached vs
//     attached (min of -guard-rounds) and fails when the attached run
//     exceeds the detached one by more than 2%;
//   - -debug-addr ADDR serves expvar + pprof for the duration.
//
// Serving flags (Bench 3):
//
//   - -serve boots the rankserved HTTP stack (sharded index + server)
//     in-process and measures QPS and exact p50/p99 request latency
//     for /v1/search and /v1/knn under concurrent clients at two
//     dataset sizes.
//
// Serving-path flags (Bench 4):
//
//   - -shard runs the shard.Batch micro-benchmarks (the serving path
//     minus HTTP) at the -serve dataset sizes, recording ns/op,
//     allocs/op and bytes/op for the arena-backed SearchInto, KNNInto
//     and fused SearchBatchInto sweeps;
//   - -baseline FILE compares the report against a checked-in earlier
//     one and exits nonzero when any shared benchmark regressed beyond
//     -max-regress (default 25%); CI runs this against
//     results/bench_baseline.json on every push.
//
// Telemetry flags (Bench 5):
//
//   - -serve-guard replays one request sequence through the in-process
//     rankserved handler stack with serving-plane telemetry at
//     production defaults vs fully disabled (min of -guard-rounds) and
//     fails when telemetry costs more than 2%.
//
// Usage:
//
//	go run ./cmd/bench -out BENCH_4.json -trace-out trace.json -guard -serve -shard
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"rankjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

type result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Bench      int      `json:"bench"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu,omitempty"`
	Results    []result `json:"results"`
}

// cpuModel best-effort identifies the host CPU so reports from
// different machines are never compared as if they were one. Linux
// exposes it in /proc/cpuinfo; elsewhere (or in stripped containers)
// the field is simply omitted.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	n := flag.Int("n", 4000, "macro-join dataset size (rankings)")
	k := flag.Int("k", 10, "ranking length for macro joins")
	theta := flag.Float64("theta", 0.3, "join threshold for macro joins")
	traceOut := flag.String("trace-out", "", "run a traced CL-P macro join and write Chrome trace JSON here")
	guard := flag.Bool("guard", false, "fail if attaching a tracer slows the macro join by >2%")
	guardRounds := flag.Int("guard-rounds", 5, "rounds per mode for the -guard comparison (min wins)")
	debugAddr := flag.String("debug-addr", "", "serve expvar+pprof on this address for the duration")
	serve := flag.Bool("serve", false, "benchmark the rankserved HTTP stack (QPS, p50/p99 latency)")
	serveGuard := flag.Bool("serve-guard", false, "fail if serving-plane telemetry adds >2% to request handling")
	shardFlag := flag.Bool("shard", false, "benchmark the shard.Batch serving path (ns/op, allocs/op)")
	clusterFlag := flag.Bool("cluster", false, "benchmark a 3-peer cluster: scatter-gather QPS and a distributed join (report bench 5)")
	baseline := flag.String("baseline", "", "fail when shared benchmarks regress beyond -max-regress vs this report")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional regression for -baseline comparisons")
	flag.Parse()

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "bench: debug listener on http://%s/debug/vars\n", dbg.Addr())
	}

	rep := report{
		Bench:      4,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
	if *clusterFlag {
		rep.Bench = 5
	}
	add := func(r result) {
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(os.Stderr, "%-40s %12.1f ns/op  %v\n", r.Name, r.NsPerOp, r.Metrics)
	}

	for _, kk := range []int{10, 25} {
		add(kernelBench(fmt.Sprintf("footrule/flat/k=%d", kk), kk, footruleFlat))
		add(kernelBench(fmt.Sprintf("footrule/mapref/k=%d", kk), kk, newMapRef()))
		add(kernelBench(fmt.Sprintf("footrule_within/flat/k=%d", kk), kk, withinFlat))
	}
	add(shuffleBench())
	naive, combined := dedupBench()
	add(naive)
	add(combined)

	rs := macroDataset(*n, *k)
	algos := []rankjoin.Algorithm{rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL, rankjoin.AlgCLP}
	for _, algo := range algos {
		add(joinBench(algo, rs, *theta))
	}
	if *traceOut != "" {
		r, err := tracedJoin(*traceOut, rs, *theta)
		if err != nil {
			fatal(err)
		}
		add(r)
	}
	if *guard {
		r, err := overheadGuard(rs, *theta, *guardRounds)
		if err != nil {
			fatal(err)
		}
		add(r)
	}
	if *shardFlag {
		srs, err := shardBenches([]int{2000, 10000})
		if err != nil {
			fatal(err)
		}
		for _, r := range srs {
			add(r)
		}
	}
	if *serve {
		srs, err := serveBenches([]int{2000, 10000})
		if err != nil {
			fatal(err)
		}
		for _, r := range srs {
			add(r)
		}
	}
	if *clusterFlag {
		crs, err := clusterBenches(*theta)
		if err != nil {
			fatal(err)
		}
		for _, r := range crs {
			add(r)
		}
	}
	if *serveGuard {
		r, err := telemetryGuard(*guardRounds)
		if err != nil {
			fatal(err)
		}
		add(r)
	}
	if *baseline != "" {
		if err := compareBaseline(rep, *baseline, *maxRegress); err != nil {
			fatal(err)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// kernelPool draws a fixed pool of indexed ranking pairs over a domain
// of 2k items — the overlap mix a posting-list partition hands the
// verification kernel.
func kernelPool(k int) (as, bs []*rankings.Ranking) {
	rng := rand.New(rand.NewSource(42))
	as = make([]*rankings.Ranking, 256)
	bs = make([]*rankings.Ranking, 256)
	for i := range as {
		as[i] = testutil.RandRanking(rng, int64(i), k, 2*k)
		bs[i] = testutil.RandRanking(rng, int64(1000+i), k, 2*k)
	}
	return as, bs
}

func kernelBench(name string, k int, kernel func(a, b *rankings.Ranking) int) result {
	as, bs := kernelPool(k)
	br := testing.Benchmark(func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			j := i & 255
			sink += kernel(as[j], bs[j])
		}
		_ = sink
	})
	return result{Name: name, NsPerOp: float64(br.T.Nanoseconds()) / float64(br.N)}
}

func footruleFlat(a, b *rankings.Ranking) int { return rankings.Footrule(a, b) }

func withinFlat(a, b *rankings.Ranking) int {
	d, _ := rankings.FootruleWithin(a, b, rankings.Threshold(0.3, a.K()))
	return d
}

// newMapRef reproduces the pre-overhaul kernel: per-ranking
// map[Item]rank indexes probed once per item from both sides.
func newMapRef() func(a, b *rankings.Ranking) int {
	cache := make(map[*rankings.Ranking]map[rankings.Item]int32)
	idx := func(r *rankings.Ranking) map[rankings.Item]int32 {
		if m, ok := cache[r]; ok {
			return m
		}
		m := make(map[rankings.Item]int32, len(r.Items))
		for rank, it := range r.Items {
			m[it] = int32(rank)
		}
		cache[r] = m
		return m
	}
	return func(a, b *rankings.Ranking) int {
		pa, pb := idx(a), idx(b)
		k := len(a.Items)
		d := 0
		for rank, it := range a.Items {
			if rb, ok := pb[it]; ok {
				diff := rank - int(rb)
				if diff < 0 {
					diff = -diff
				}
				d += diff
			} else {
				d += k - rank
			}
		}
		for rank, it := range b.Items {
			if _, ok := pa[it]; !ok {
				d += k - rank
			}
		}
		return d
	}
}

func shuffleBench() result {
	kvs := make([]flow.KV[int64, int64], 1<<18)
	for i := range kvs {
		kvs[i] = flow.KV[int64, int64]{K: int64(i), V: int64(i)}
	}
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := flow.NewContext(flow.Config{Workers: 4})
			sh := flow.PartitionByKey(flow.Parallelize(ctx, kvs, 16), 16)
			if _, err := sh.Count(); err != nil {
				b.Fatal(err)
			}
		}
	})
	nsPerOp := float64(br.T.Nanoseconds()) / float64(br.N)
	return result{
		Name:    "shuffle/partition_by_key/256k",
		NsPerOp: nsPerOp,
		Metrics: map[string]float64{"mb_per_s": float64(len(kvs)*16) / (nsPerOp / 1e9) / 1e6},
	}
}

// dedupBench contrasts the final deduplication stage with and without
// map-side combining on duplicate-heavy data (8 copies per value, the
// shape prefix-filtering joins emit). The headline number is
// shuffle_records: how many records cross the exchange.
func dedupBench() (naive, combined result) {
	type pairKey struct{ A, B int64 }
	const n, dup, parts = 1 << 17, 8, 16
	data := make([]pairKey, n)
	for i := range data {
		data[i] = pairKey{A: int64(i / dup), B: int64(i/dup + 1)}
	}
	// Naive reference: shuffle every record, dedup reduce-side only.
	naiveDistinct := func(ctx *flow.Context) (int, error) {
		keyed := flow.Map(flow.Parallelize(ctx, data, parts),
			func(v pairKey) flow.KV[pairKey, struct{}] { return flow.KV[pairKey, struct{}]{K: v} })
		sh := flow.PartitionByKey(keyed, parts)
		ded := flow.MapPartitions(sh, func(_ int, in []flow.KV[pairKey, struct{}]) ([]pairKey, error) {
			seen := make(map[pairKey]struct{}, len(in))
			out := make([]pairKey, 0, len(in))
			for _, kv := range in {
				if _, dup := seen[kv.K]; dup {
					continue
				}
				seen[kv.K] = struct{}{}
				out = append(out, kv.K)
			}
			return out, nil
		})
		got, err := ded.Collect()
		return len(got), err
	}

	var shuffled int64
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := flow.NewContext(flow.Config{Workers: 4})
			got, err := naiveDistinct(ctx)
			if err != nil || got != n/dup {
				b.Fatalf("naive distinct = %d (%v)", got, err)
			}
			shuffled = ctx.Snapshot().ShuffleRecords
		}
	})
	naive = result{
		Name:    "dedup/naive_shuffle_all/1m_dup8",
		NsPerOp: float64(br.T.Nanoseconds()) / float64(br.N),
		Metrics: map[string]float64{"shuffle_records": float64(shuffled)},
	}

	br = testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := flow.NewContext(flow.Config{Workers: 4})
			got, err := flow.Distinct(flow.Parallelize(ctx, data, parts), parts).Collect()
			if err != nil || len(got) != n/dup {
				b.Fatalf("distinct = %d (%v)", len(got), err)
			}
			shuffled = ctx.Snapshot().ShuffleRecords
		}
	})
	combined = result{
		Name:    "dedup/map_side_combine/1m_dup8",
		NsPerOp: float64(br.T.Nanoseconds()) / float64(br.N),
		Metrics: map[string]float64{"shuffle_records": float64(shuffled)},
	}
	return naive, combined
}

// macroDataset is the shared macro-join workload: clustered so CL has
// structure to exploit, seeded so BENCH reports compare across PRs.
func macroDataset(n, k int) []*rankings.Ranking {
	rng := rand.New(rand.NewSource(7))
	return testutil.ClusteredDataset(rng, n/5, 4, k, 30*k)
}

// clpThetaC is the clustering threshold used for the CL-P macro join
// and the traced run. The paper's default 0.03 produces near-singleton
// clusters on this workload, leaving the expansion phase (and its
// triangle-inequality filter) idle; 0.15 yields real clusters so the
// report captures every stage of the filter cascade. CL keeps the
// default for comparability with earlier BENCH reports.
const clpThetaC = 0.15

func joinOpts(algo rankjoin.Algorithm, theta float64) rankjoin.Options {
	opts := rankjoin.Options{Algorithm: algo, Theta: theta}
	if algo == rankjoin.AlgCLP {
		opts.ThetaC = clpThetaC
		// δ is left to the join; Stats carries what it planned and the
		// posting lists it then saw into the row (see joinBench).
		opts.Stats = true
	}
	return opts
}

func joinBench(algo rankjoin.Algorithm, rs []*rankings.Ranking, theta float64) result {
	var snap flow.MetricsSnapshot
	var filters rankjoin.FilterStats
	var pairs int
	var cl *core.Stats
	br := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := rankjoin.Join(rs, joinOpts(algo, theta))
			if err != nil {
				b.Fatal(err)
			}
			pairs = len(res.Pairs)
			snap = res.Engine
			filters = res.Filters
			cl = res.CL
		}
	})
	m := map[string]float64{
		"pairs":           float64(pairs),
		"shuffle_records": float64(snap.ShuffleRecords),
		"shuffle_time_ns": float64(snap.ShuffleTime.Nanoseconds()),
		"tasks":           float64(snap.Tasks),
		"max_partition":   float64(snap.MaxPartitionRecords),
		"rankings":        float64(len(rs)),
	}
	for name, d := range snap.Stages {
		m["stage:"+name+"_ns"] = float64(d.Nanoseconds())
	}
	if cl != nil && cl.Delta > 0 {
		// Planned against observed: eq4_predicted_len minus
		// observed_mean_len is Equation 4's model error on this input.
		mean, longest := cl.ObservedListLen()
		m["delta"] = float64(cl.Delta)
		m["eq4_predicted_len"] = cl.PredictedListLen
		m["observed_mean_len"] = mean
		m["observed_max_len"] = float64(longest)
	}
	addFilterMetrics(m, filters)
	for name, h := range snap.Histograms {
		m["hist:"+name+"_p50"] = float64(h.Quantile(0.50))
		m["hist:"+name+"_p95"] = float64(h.Quantile(0.95))
		m["hist:"+name+"_max"] = float64(h.Max)
	}
	return result{
		Name:    fmt.Sprintf("join/%s/theta=%.1f", algo, theta),
		NsPerOp: float64(br.T.Nanoseconds()) / float64(br.N),
		Metrics: m,
	}
}

func addFilterMetrics(m map[string]float64, f rankjoin.FilterStats) {
	m["filters_generated"] = float64(f.Generated)
	m["filters_pruned_prefix"] = float64(f.PrunedPrefix)
	m["filters_pruned_signature"] = float64(f.PrunedSignature)
	m["filters_pruned_position"] = float64(f.PrunedPosition)
	m["filters_pruned_triangle"] = float64(f.PrunedTriangle)
	m["filters_accepted_unverified"] = float64(f.AcceptedUnverified)
	m["filters_verified"] = float64(f.Verified)
	m["filters_emitted"] = float64(f.Emitted)
	conserved := 0.0
	if f.Conserved() {
		conserved = 1
	}
	m["filters_conserved"] = conserved
}

// tracedJoin runs one CL-P macro join with a tracer attached, writes
// the Chrome trace to path, and validates it: the span forest must be
// well-formed, the exported JSON must parse, and it must contain all
// four CL phase spans plus per-partition task events.
func tracedJoin(path string, rs []*rankings.Ranking, theta float64) (result, error) {
	e := rankjoin.NewEngine(rankjoin.EngineConfig{})
	defer e.Close()
	tr := rankjoin.NewTracer()
	e.SetTracer(tr)
	start := time.Now()
	res, err := e.Join(rs, joinOpts(rankjoin.AlgCLP, theta))
	if err != nil {
		return result{}, err
	}
	wall := time.Since(start)
	if err := tr.Validate(); err != nil {
		return result{}, fmt.Errorf("trace ill-formed: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return result{}, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	events, tasks, err := checkTrace(path)
	if err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"pairs":        float64(len(res.Pairs)),
		"trace_events": float64(events),
		"trace_tasks":  float64(tasks),
	}
	addFilterMetrics(m, res.Filters)
	return result{
		Name:    fmt.Sprintf("trace/CL-P/theta=%.1f", theta),
		NsPerOp: float64(wall.Nanoseconds()),
		Metrics: m,
	}, nil
}

// checkTrace re-reads the exported file the way Perfetto would: parse
// the JSON, then require the four CL phase scopes and at least one
// per-partition task event. Returns total event and task-event counts.
func checkTrace(path string) (events, tasks int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	var file struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		return 0, 0, fmt.Errorf("trace JSON unparseable: %w", err)
	}
	names := make(map[string]bool)
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		events++
		names[ev.Name] = true
		if ev.Cat == "task" {
			tasks++
		}
	}
	for _, phase := range []string{"cl/ordering", "cl/clustering", "cl/joining", "cl/expansion"} {
		if !names[phase] {
			return 0, 0, fmt.Errorf("trace missing phase span %q", phase)
		}
	}
	if tasks == 0 {
		return 0, 0, fmt.Errorf("trace has no per-partition task events")
	}
	return events, tasks, nil
}

// overheadGuard measures the macro join with the tracer detached (the
// default: every instrumentation site reduces to a nil check) and
// attached, min wall time of `rounds` each, and fails when attaching
// costs more than 2% plus a small absolute slack that keeps short CI
// smoke runs out of timer-noise territory. The detached numbers are
// the ones comparable against the pre-instrumentation BENCH_1.json
// joins — that comparison is committed alongside BENCH_2.json.
func overheadGuard(rs []*rankings.Ranking, theta float64, rounds int) (result, error) {
	if rounds < 1 {
		rounds = 1
	}
	run := func(traced bool) (time.Duration, error) {
		e := rankjoin.NewEngine(rankjoin.EngineConfig{})
		defer e.Close()
		if traced {
			e.SetTracer(rankjoin.NewTracer())
		}
		start := time.Now()
		_, err := e.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: theta})
		return time.Since(start), err
	}
	// Warm both modes once so neither pays first-run page faults and
	// allocator growth in its measured rounds, then alternate modes
	// within each round so machine drift (GC pressure, thermal, noisy
	// neighbours) hits both equally instead of whichever ran last.
	var disabled, enabled time.Duration
	for i := -1; i < rounds; i++ {
		d, err := run(false)
		if err != nil {
			return result{}, err
		}
		en, err := run(true)
		if err != nil {
			return result{}, err
		}
		if i < 0 {
			continue // warm-up round
		}
		if disabled == 0 || d < disabled {
			disabled = d
		}
		if enabled == 0 || en < enabled {
			enabled = en
		}
	}
	ratio := float64(enabled) / float64(disabled)
	const slack = 5 * time.Millisecond
	limit := time.Duration(float64(disabled)*1.02) + slack
	if enabled > limit {
		return result{}, fmt.Errorf("tracing overhead guard: enabled %v > %v (disabled %v, ratio %.3f)",
			enabled, limit, disabled, ratio)
	}
	return result{
		Name:    "guard/trace_overhead/CL",
		NsPerOp: float64(disabled.Nanoseconds()),
		Metrics: map[string]float64{
			"disabled_ns": float64(disabled.Nanoseconds()),
			"enabled_ns":  float64(enabled.Nanoseconds()),
			"ratio":       ratio,
			"rounds":      float64(rounds),
		},
	}, nil
}
