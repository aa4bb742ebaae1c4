// Package check is the differential correctness harness of the
// repository: the paper's guarantee is exactness — every join algorithm
// must return the identical pair set as a brute-force Footrule scan for
// every θ, k and data skew — and this package certifies it across all
// execution paths at once.
//
// A trial is one seeded, deterministic run: an adversarial dataset
// (Zipf skew, near-duplicate clusters, disjoint domains, boundary
// thresholds landing exactly on integer Footrule distances) is pushed
// through every join path — the brute-force oracle, VJ, VJ-NL, CL,
// CL-P with δ forced low enough to exercise repartitioning and again
// with δ left to the join's own Equation 4 planner, FS-Join,
// V-SMART, the R-S join, and the sharded dynamic index after
// upsert/delete churn — and the result sets are diffed pair by pair.
// On top of set equality the harness checks metamorphic properties:
// threshold monotonicity (θ₁ ≤ θ₂ ⇒ pairs₁ ⊆ pairs₂), the metric
// axioms on sampled triples, invariance under id permutation, and the
// filter-counter conservation law of internal/obs.
//
// Failing trials shrink to a minimal reproducer (Shrink) and serialize
// to a replayable seed file (WriteRepro) that both cmd/rankcheck
// -replay and the package tests re-run as regression anchors.
package check

import (
	"fmt"
	"math/rand"
	"sort"

	"rankjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/testutil"
)

// Execution paths the harness certifies. PathBrute is the oracle and
// always runs; disabling it disables the self-join diffs.
const (
	PathBrute   = "brute"
	PathVJ      = "vj"
	PathVJNL    = "vjnl"
	PathCL      = "cl"
	PathCLP     = "clp"
	PathCLPAuto = "clpauto" // CL-P with Delta 0: the join plans δ itself
	PathFSJoin  = "fsjoin"
	PathVSMART  = "vsmart"
	PathJoinRS  = "joinrs"
	PathShard   = "shard"
)

// AllPaths lists every execution path in reporting order.
var AllPaths = []string{
	PathBrute, PathVJ, PathVJNL, PathCL, PathCLP, PathCLPAuto,
	PathFSJoin, PathVSMART, PathJoinRS, PathShard,
}

// Divergence kinds.
const (
	KindPairs        = "pairs"        // result set differs from the oracle
	KindError        = "error"        // a path errored where the oracle succeeded
	KindMonotonicity = "monotonicity" // θ₁ ≤ θ₂ but pairs₁ ⊄ pairs₂
	KindMetric       = "metric"       // a Footrule metric axiom failed
	KindPermutation  = "permutation"  // result changed under id relabeling
	KindConservation = "conservation" // filter counters violate the law
	KindContract     = "contract"     // an API contract broke (labels, typed errors)
)

// Divergence is one certified disagreement between an execution path
// and the oracle (or a metamorphic property violation).
type Divergence struct {
	Path   string
	Kind   string
	Detail string
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s/%s] %s", d.Path, d.Kind, d.Detail)
}

// Matches reports whether the two divergences describe the same
// failure family — the shrinking predicate ignores Detail, which
// legitimately changes as the dataset shrinks.
func (d Divergence) Matches(o Divergence) bool { return d.Path == o.Path && d.Kind == o.Kind }

// collector accumulates divergences from the sub-runners.
type collector struct {
	divs    []Divergence
	enabled func(path string) bool
}

func (c *collector) on(path string) bool { return c.enabled == nil || c.enabled(path) }

func (c *collector) report(path, kind, format string, args ...any) {
	c.divs = append(c.divs, Divergence{Path: path, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// RunTrial executes one full differential trial over the dataset.
// enabled selects paths by name (nil enables all). The returned slice
// is empty when every path agrees with the oracle and every metamorphic
// property holds. RunTrial is deterministic: the same Params and
// dataset always produce the same divergences.
func RunTrial(p Params, rs []*rankings.Ranking, enabled func(path string) bool) []Divergence {
	c := &collector{enabled: enabled}
	// Each sub-runner gets its own seed-derived stream, so disabling one
	// path (shrinking, -paths) cannot change the schedule of another.
	rngFor := func(salt int64) *rand.Rand {
		return rand.New(rand.NewSource(p.Seed ^ salt))
	}
	rankings.IndexAll(rs)

	eng := rankjoin.NewEngine(rankjoin.EngineConfig{})
	defer eng.Close()

	if c.on(PathBrute) {
		oracle, err := eng.Join(rs, rankjoin.Options{
			Algorithm:  rankjoin.AlgBruteForce,
			Theta:      p.Theta,
			Partitions: p.Partitions,
		})
		if err != nil {
			c.report(PathBrute, KindError, "oracle failed: %v", err)
			return c.divs
		}
		checkConservation(c, PathBrute, oracle)
		runSelfJoins(c, p, rs, eng, oracle.Pairs)
		runMetamorphic(c, p, rs, eng, rngFor(0x5eedc0de))
	}
	if c.on(PathJoinRS) {
		runJoinRS(c, p, rs, eng)
	}
	if c.on(PathShard) {
		runShard(c, p, rs, rngFor(0xc42112))
	}
	return c.divs
}

// selfJoinPaths maps path names to algorithm requests. ClusterJoin is
// deliberately absent: its anchor sampling is seeded internally and it
// is covered by its own package tests. PathCLPAuto is not listed: the
// metamorphic runner draws from this table by index, and a new row
// would reshuffle what every existing seed draws.
var selfJoinPaths = []struct {
	path string
	alg  rankjoin.Algorithm
}{
	{PathVJ, rankjoin.AlgVJ},
	{PathVJNL, rankjoin.AlgVJNL},
	{PathCL, rankjoin.AlgCL},
	{PathCLP, rankjoin.AlgCLP},
	{PathFSJoin, rankjoin.AlgFSJoin},
	{PathVSMART, rankjoin.AlgVSMART},
}

func (p Params) options(alg rankjoin.Algorithm) rankjoin.Options {
	opts := rankjoin.Options{
		Algorithm:  alg,
		Theta:      p.Theta,
		ThetaC:     p.ThetaC,
		Partitions: p.Partitions,
	}
	if alg == rankjoin.AlgCLP {
		opts.Delta = p.Delta
	}
	return opts
}

// runSelfJoins diffs every enabled self-join algorithm against the
// oracle pair set, pair by pair (ids and distances).
func runSelfJoins(c *collector, p Params, rs []*rankings.Ranking, eng *rankjoin.Engine, oracle []rankings.Pair) {
	diff := func(path string, opts rankjoin.Options) *rankjoin.Result {
		res, err := eng.Join(rs, opts)
		if err != nil {
			c.report(path, KindError, "%v", err)
			return nil
		}
		if res.Algorithm != opts.Algorithm {
			c.report(path, KindContract, "requested %v, result labeled %v", opts.Algorithm, res.Algorithm)
		}
		if !rankings.SamePairs(res.Pairs, oracle) {
			c.report(path, KindPairs, "%s", diffDetail(res.Pairs, oracle))
		}
		checkConservation(c, path, res)
		return res
	}
	for _, sj := range selfJoinPaths {
		if c.on(sj.path) {
			diff(sj.path, p.options(sj.alg))
		}
	}
	if c.on(PathCLPAuto) {
		// δ left to the join: it must run with exactly the δ the public
		// SuggestDelta reports for this dataset.
		opts := p.options(rankjoin.AlgCLP)
		opts.Delta, opts.Stats = 0, true
		if res := diff(PathCLPAuto, opts); res != nil {
			want, err := rankjoin.SuggestDelta(rs, p.Theta)
			if err != nil {
				c.report(PathCLPAuto, KindError, "SuggestDelta: %v", err)
			} else if res.CL.Delta != want {
				c.report(PathCLPAuto, KindContract, "join planned δ=%d, SuggestDelta says %d", res.CL.Delta, want)
			}
		}
	}
}

// diffDetail renders a pair-set disagreement compactly: totals plus up
// to five examples per side.
func diffDetail(got, want []rankings.Pair) string {
	extra, missing := rankings.DiffPairs(got, want)
	if len(extra) == 0 && len(missing) == 0 {
		// Same keys, different distances.
		n := len(got)
		if len(want) < n {
			n = len(want)
		}
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				return fmt.Sprintf("distance mismatch: got %v want %v", got[i], want[i])
			}
		}
		return fmt.Sprintf("got %d pairs, want %d", len(got), len(want))
	}
	return fmt.Sprintf("got %d pairs want %d; extra=%v missing=%v",
		len(got), len(want), clipPairs(extra), clipPairs(missing))
}

func clipPairs(ps []rankings.Pair) []rankings.Pair {
	if len(ps) > 5 {
		return ps[:5]
	}
	return ps
}

// checkConservation asserts the obs filter law on a join result: every
// generated candidate met exactly one fate, and at least as many pairs
// were emitted as survived deduplication.
func checkConservation(c *collector, path string, res *rankjoin.Result) {
	f := res.Filters
	if !f.Conserved() {
		c.report(path, KindConservation, "filter counters not conserved: %v", f)
		return
	}
	if f.Emitted < int64(len(res.Pairs)) {
		c.report(path, KindConservation, "emitted %d < %d result pairs: %v", f.Emitted, len(res.Pairs), f)
	}
}

// runMetamorphic checks the properties that hold beyond plain oracle
// equality: the metric axioms, threshold monotonicity, and invariance
// under id relabeling. One rotating algorithm per property keeps the
// per-trial cost bounded while every algorithm is exercised across
// seeds.
func runMetamorphic(c *collector, p Params, rs []*rankings.Ranking, eng *rankjoin.Engine, rng *rand.Rand) {
	// Metric axioms on sampled triples: identity, symmetry, triangle.
	for t := 0; t < 32 && len(rs) > 0; t++ {
		a := rs[rng.Intn(len(rs))]
		b := rs[rng.Intn(len(rs))]
		x := rs[rng.Intn(len(rs))]
		if d := rankings.Footrule(a, a); d != 0 {
			c.report(PathBrute, KindMetric, "d(%d,%d)=%d, want 0", a.ID, a.ID, d)
		}
		dab, dba := rankings.Footrule(a, b), rankings.Footrule(b, a)
		if dab != dba {
			c.report(PathBrute, KindMetric, "asymmetric: d(%d,%d)=%d but d(%d,%d)=%d",
				a.ID, b.ID, dab, b.ID, a.ID, dba)
		}
		dax, dxb := rankings.Footrule(a, x), rankings.Footrule(x, b)
		if dab > dax+dxb {
			c.report(PathBrute, KindMetric,
				"triangle violated: d(%d,%d)=%d > d(%d,%d)+d(%d,%d)=%d",
				a.ID, b.ID, dab, a.ID, x.ID, x.ID, b.ID, dax+dxb)
		}
	}

	// Threshold monotonicity on a rotating algorithm: raising θ must
	// only add pairs, never drop or re-score one.
	sj := selfJoinPaths[rng.Intn(len(selfJoinPaths))]
	theta2 := p.Theta + (1-p.Theta)*rng.Float64()
	lo, err := eng.Join(rs, p.options(sj.alg))
	if err != nil {
		c.report(sj.path, KindError, "monotonicity lower run: %v", err)
		return
	}
	hiOpts := p.options(sj.alg)
	hiOpts.Theta = theta2
	hi, err := eng.Join(rs, hiOpts)
	if err != nil {
		c.report(sj.path, KindError, "monotonicity upper run: %v", err)
		return
	}
	hiSet := make(map[rankings.PairKey]int, len(hi.Pairs))
	for _, pr := range hi.Pairs {
		hiSet[pr.Key()] = pr.Dist
	}
	for _, pr := range lo.Pairs {
		d, ok := hiSet[pr.Key()]
		if !ok {
			c.report(sj.path, KindMonotonicity,
				"pair %v present at θ=%v but missing at θ=%v", pr, p.Theta, theta2)
			break
		}
		if d != pr.Dist {
			c.report(sj.path, KindMonotonicity,
				"pair %v scored %d at θ=%v but %d at θ=%v", pr, pr.Dist, p.Theta, d, theta2)
			break
		}
	}

	// Id-permutation invariance on another rotating algorithm: relabel
	// every id through a scattered bijection, rerun, map back, compare.
	// CL elects centroids by id order and VJ hashes ids into
	// sub-partitions — the result set must not care.
	sj2 := selfJoinPaths[rng.Intn(len(selfJoinPaths))]
	perm := rng.Perm(len(rs))
	inv := make(map[int64]int64, len(rs))
	relabeled := make([]*rankings.Ranking, len(rs))
	for i, r := range rs {
		newID := int64(1_000_003 + 7*perm[i])
		inv[newID] = r.ID
		cp := r.Clone()
		cp.ID = newID
		cp.Index()
		relabeled[i] = cp
	}
	base, err := eng.Join(rs, p.options(sj2.alg))
	if err != nil {
		c.report(sj2.path, KindError, "permutation base run: %v", err)
		return
	}
	permRes, err := eng.Join(relabeled, p.options(sj2.alg))
	if err != nil {
		c.report(sj2.path, KindError, "permutation run: %v", err)
		return
	}
	mapped := make([]rankings.Pair, len(permRes.Pairs))
	for i, pr := range permRes.Pairs {
		mapped[i] = rankings.NewPair(inv[pr.A], inv[pr.B], pr.Dist)
	}
	rankings.SortPairs(mapped)
	if !rankings.SamePairs(mapped, base.Pairs) {
		c.report(sj2.path, KindPermutation, "%s", diffDetail(mapped, base.Pairs))
	}
}

// runJoinRS splits the dataset into an R and an S half and diffs the
// prefix-filtered R-S pipeline against the quadratic R×S oracle. It
// also pins the JoinRS API contract: the result reports the algorithm
// actually executed, and self-join-only algorithms are typed errors.
func runJoinRS(c *collector, p Params, rs []*rankings.Ranking, eng *rankjoin.Engine) {
	half := len(rs) / 2
	r, s := rs[:half], rs[half:]

	oracle, err := eng.JoinRS(r, s, rankjoin.Options{
		Algorithm:  rankjoin.AlgBruteForce,
		Theta:      p.Theta,
		Partitions: p.Partitions,
	})
	if err != nil {
		c.report(PathJoinRS, KindError, "oracle: %v", err)
		return
	}
	if oracle.Algorithm != rankjoin.AlgBruteForce {
		c.report(PathJoinRS, KindContract, "brute-force R-S labeled %v", oracle.Algorithm)
	}
	checkConservation(c, PathJoinRS, oracle)

	res, err := eng.JoinRS(r, s, rankjoin.Options{
		Theta:      p.Theta,
		Partitions: p.Partitions,
		Delta:      p.Delta,
	})
	if err != nil {
		c.report(PathJoinRS, KindError, "%v", err)
		return
	}
	if res.Algorithm != rankjoin.AlgVJNL {
		c.report(PathJoinRS, KindContract,
			"R-S pipeline must report the executed algorithm (VJ-NL), got %v", res.Algorithm)
	}
	if !rankings.SamePairs(res.Pairs, oracle.Pairs) {
		c.report(PathJoinRS, KindPairs, "%s", diffDetail(res.Pairs, oracle.Pairs))
	}
	checkConservation(c, PathJoinRS, res)

	// Self-join-only algorithms must refuse with the typed error, not
	// silently run something else.
	if _, err := eng.JoinRS(r, s, rankjoin.Options{
		Algorithm: rankjoin.AlgCLP, Theta: p.Theta, Delta: p.Delta,
	}); err == nil {
		c.report(PathJoinRS, KindContract, "CL-P over R-S must be ErrSelfJoinOnly, got nil error")
	}
}

// neighborsEqual compares two (dist, id)-sorted hit lists.
func neighborsEqual(a, b []shard.Neighbor) bool {
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

func sortNeighbors(ns []shard.Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

// bruteNeighbors scans the live mirror for everything within maxDist of
// q (excluding the id `exclude`), sorted by (dist, id) — the oracle for
// every shard query mode.
func bruteNeighbors(live map[int64]*rankings.Ranking, q *rankings.Ranking, maxDist int, exclude int64) []shard.Neighbor {
	var out []shard.Neighbor
	for id, r := range live {
		if id == exclude {
			continue
		}
		if d, ok := rankings.FootruleWithin(q, r, maxDist); ok {
			out = append(out, shard.Neighbor{ID: id, Dist: d})
		}
	}
	sortNeighbors(out)
	return out
}

// runShard drives the dynamic sharded index through randomized
// upsert/delete churn, then diffs Search, KNN and a mixed SearchBatch
// sweep against a brute-force scan of a live mirror maintained in
// lockstep with the mutations.
func runShard(c *collector, p Params, rs []*rankings.Ranking, rng *rand.Rand) {
	idx := shard.New(shard.Config{
		Shards:         p.Shards,
		PivotsPerShard: p.Pivots,
		Seed:           p.Seed,
	})
	live := make(map[int64]*rankings.Ranking, len(rs))
	nextID := int64(0)
	insert := func(r *rankings.Ranking) bool {
		if err := idx.Insert(r); err != nil {
			c.report(PathShard, KindError, "insert id %d: %v", r.ID, err)
			return false
		}
		live[r.ID] = r
		if r.ID >= nextID {
			nextID = r.ID + 1
		}
		return true
	}
	for _, r := range rs {
		if !insert(r) {
			return
		}
	}

	// Randomized churn: deletes, replacing upserts, fresh inserts. The
	// mirror is updated in lockstep so the oracle always reflects the
	// index's intended contents.
	liveIDs := func() []int64 {
		ids := make([]int64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	for op := 0; op < p.Churn; op++ {
		switch rng.Intn(3) {
		case 0: // delete
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if ok, err := idx.Delete(id); err != nil {
				c.report(PathShard, KindError, "delete of live id %d failed: %v", id, err)
			} else if !ok {
				c.report(PathShard, KindError, "delete of live id %d reported absent", id)
			}
			delete(live, id)
		case 1: // upsert an existing id with fresh items
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if !insert(testutil.RandRanking(rng, id, p.K, p.Domain)) {
				return
			}
		default: // fresh insert
			if !insert(testutil.RandRanking(rng, nextID, p.K, p.Domain)) {
				return
			}
		}
	}
	if idx.Len() != len(live) {
		c.report(PathShard, KindError, "index holds %d rankings, mirror %d", idx.Len(), len(live))
	}

	// Query sample: indexed members (self-excluded) and fresh ad-hoc
	// queries (nothing excluded).
	type probe struct {
		q       *rankings.Ranking
		exclude int64
	}
	var probes []probe
	if ids := liveIDs(); len(ids) > 0 {
		for i := 0; i < 6; i++ {
			id := ids[rng.Intn(len(ids))]
			probes = append(probes, probe{q: live[id], exclude: id})
		}
	}
	for i := 0; i < 4; i++ {
		probes = append(probes, probe{
			q:       testutil.RandRanking(rng, nextID+int64(1000+i), p.K, p.Domain),
			exclude: shard.NoExclude,
		})
	}
	maxDist := rankings.Threshold(p.Theta, p.K)
	maxF := rankings.MaxFootrule(p.K)

	// Individual Search and KNN calls vs the oracle, accumulated into a
	// batch replayed below — the batched sweep must answer each query
	// identically to the one-at-a-time path.
	var batch []shard.Query
	var want [][]shard.Neighbor
	for _, pb := range probes {
		hits, err := idx.Search(pb.q, maxDist, pb.exclude)
		if err != nil {
			c.report(PathShard, KindError, "search(q=%d): %v", pb.q.ID, err)
			continue
		}
		expect := bruteNeighbors(live, pb.q, maxDist, pb.exclude)
		if !neighborsEqual(hits, expect) {
			c.report(PathShard, KindPairs, "search(q=%d θ=%v): got %v want %v",
				pb.q.ID, p.Theta, hits, expect)
		}
		batch = append(batch, shard.Query{R: pb.q, MaxDist: maxDist, Exclude: pb.exclude})
		want = append(want, expect)

		// kNN at the boundary sizes where tie order matters: n = 1, a
		// small n, and n beyond the index size.
		all := bruteNeighbors(live, pb.q, maxF, pb.exclude)
		for _, n := range []int{1, 1 + rng.Intn(4), len(live) + 1} {
			got, err := idx.KNN(pb.q, n, pb.exclude)
			if err != nil {
				c.report(PathShard, KindError, "knn(q=%d n=%d): %v", pb.q.ID, n, err)
				continue
			}
			expect := all
			if len(expect) > n {
				expect = expect[:n]
			}
			if !neighborsEqual(got, expect) {
				c.report(PathShard, KindPairs, "knn(q=%d n=%d): got %v want %v",
					pb.q.ID, n, got, expect)
			}
			batch = append(batch, shard.Query{R: pb.q, KNN: n, Exclude: pb.exclude})
			want = append(want, expect)
		}
	}

	got, err := idx.SearchBatch(batch, nil)
	if err != nil {
		c.report(PathShard, KindError, "batch sweep: %v", err)
	} else {
		for i := range got {
			if !neighborsEqual(got[i], want[i]) {
				c.report(PathShard, KindPairs, "batch query %d (q=%d knn=%d): got %v want %v",
					i, batch[i].R.ID, batch[i].KNN, got[i], want[i])
			}
		}
	}
	// Arena path: the same batch replayed twice through one reused Batch
	// must answer identically both times — the second pass runs entirely
	// on recycled scratch, so any stale-aliasing bug in the arena (or in
	// the fused signature sweep's reused overlap matrix) shows up as a
	// divergence here.
	arena := idx.NewBatch()
	for pass := 0; pass < 2; pass++ {
		views, err := arena.SearchBatchInto(batch, nil)
		if err != nil {
			c.report(PathShard, KindError, "arena sweep pass %d: %v", pass, err)
			break
		}
		for i := range views {
			if !neighborsEqual(views[i], want[i]) {
				c.report(PathShard, KindPairs, "arena pass %d query %d (q=%d knn=%d): got %v want %v",
					pass, i, batch[i].R.ID, batch[i].KNN, views[i], want[i])
			}
		}
	}
	if snap := idx.Filters().Snapshot(); !snap.Conserved() {
		c.report(PathShard, KindConservation, "index filter counters not conserved: %v", snap)
	}
}
