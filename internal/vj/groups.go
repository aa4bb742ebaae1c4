// Package vj implements the Vernica-Join adaptation to top-k rankings
// of §4 of the paper on the flow engine, in both variants evaluated:
//
//   - VJ: per-partition PPJoin-style inverted-index join, and
//   - VJ-NL: per-partition nested-loop join over iterators (§4.1), the
//     Spark-friendlier formulation.
//
// It also houses JoinGroups, the one group-join driver every
// prefix-style join runs on: route each record to its tokens, group by
// token, split oversized groups per §6, join each group with the
// caller's kernels and fold their filter ledgers. VJ, VJ-NL and the
// R-S join route by prefix tokens; the CL/CL-P joining phase routes
// centroids by their type-dependent prefixes; FS-Join routes by
// segments. Each caller removes duplicates its own way afterwards.
package vj

import (
	"hash/fnv"

	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// GroupJoinOptions configures JoinGroups. T is the record type routed
// to each token: plain rankings for VJ, side-tagged rankings for the
// R-S join, type-tagged centroids for the CL joining phase. R is the
// kernel output type (rankings.Pair, or core's tagged centroid pairs).
type GroupJoinOptions[T, R any] struct {
	// Route returns the tokens a record is emitted under — its prefix
	// items, plus rankings.CatchAllItem in the degenerate regime. The
	// result is only read.
	Route func(T) []rankings.Item
	// Self joins the records of one (sub-)group against each other.
	// item is the token the group belongs to; d is the ledger the
	// kernel tallies every candidate in.
	Self func(item rankings.Item, members []T, d *obs.FilterDelta) []R
	// Cross joins two sub-groups of the same token against each other
	// (the R-S join of Algorithm 3). Only used when Delta > 0.
	Cross func(item rankings.Item, a, b []T, d *obs.FilterDelta) []R
	// SubKey must return a stable identity for a record; it seeds the
	// deterministic "random" secondary key assignment of records to
	// sub-groups.
	SubKey func(T) int64
	// Delta is the §6 partitioning threshold δ: groups longer than
	// Delta are split into sub-groups of at most Delta records. Zero or
	// negative disables repartitioning.
	Delta int
	// Partitions is the shuffle partition count for the grouping
	// stage; non-positive uses the context default.
	Partitions int
	// Stats, when non-nil, receives the kernels' ledger and the group
	// accounting; the ledger also goes to the engine's counters.
	Stats *Stats
}

// subKeyOf assigns a record to one of n sub-partitions. The assignment
// is the paper's random secondary key, made deterministic by hashing
// the record identity with the token, so reruns and tests are stable
// while records still spread evenly.
func subKeyOf(id int64, item rankings.Item, n int) int {
	h := fnv.New64a()
	var buf [12]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(id >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		buf[8+i] = byte(uint32(item) >> (8 * i))
	}
	h.Write(buf[:])
	return int(h.Sum64() % uint64(n))
}

// joinTasks runs join over every element of each partition. The task
// keeps one ledger for all its elements and folds it once, into s and
// the engine's counters, when the partition is done.
func joinTasks[G, R any](ds *flow.Dataset[G], s *Stats, join func(g G, d *obs.FilterDelta) []R) *flow.Dataset[R] {
	fc := ds.Context().Filters()
	return flow.MapPartitions(ds, func(_ int, in []G) ([]R, error) {
		var d obs.FilterDelta
		var out []R
		for _, g := range in {
			out = append(out, join(g, &d)...)
		}
		s.Tally(fc, d)
		return out, nil
	})
}

// JoinGroups is the group join of every prefix-style pipeline in the
// paper, Algorithm 3 style: each record is emitted once per token
// opts.Route gives it, and records sharing a token are grouped. Groups
// within δ are joined directly by the Self kernel; larger groups are
// split into sub-groups that are redistributed via the engine shuffle,
// self-joined, and then R-S-joined pairwise by the Cross kernel. A pair
// sharing several tokens may come out of each of their groups; removing
// those duplicates is the caller's final phase.
func JoinGroups[T, R any](ds *flow.Dataset[T], opts GroupJoinOptions[T, R]) *flow.Dataset[R] {
	ctx := ds.Context()
	keyed := flow.FlatMap(ds, func(rec T) []flow.KV[rankings.Item, T] {
		items := opts.Route(rec)
		out := make([]flow.KV[rankings.Item, T], len(items))
		for i, it := range items {
			out[i] = flow.KV[rankings.Item, T]{K: it, V: rec}
		}
		return out
	})
	groups := flow.GroupByKey(keyed, opts.Partitions)
	parts := opts.Partitions
	if parts <= 0 {
		parts = ctx.Config().DefaultPartitions
	}
	// Posting-list length distribution — the skew signal δ reacts to.
	listHist := ctx.Histogram("join/posting_list_len")
	joinSmall := func(g flow.KV[rankings.Item, []T], d *obs.FilterDelta) []R {
		opts.Stats.addGroup(len(g.V), false)
		listHist.Observe(int64(len(g.V)))
		return opts.Self(g.K, g.V, d)
	}

	if opts.Delta <= 0 {
		// No repartitioning: one kernel invocation per posting list.
		return joinTasks(groups, opts.Stats, joinSmall)
	}
	// The paper increases the number of partitions when splitting; the
	// post-repartitioning stages run on twice as many.
	const factor = 2

	// Both branches below traverse the grouped dataset; cache it so the
	// group-building pass runs once (the iterative-processing idiom the
	// paper adopts from Spark).
	groups = groups.Cache()

	// I_{<δ}: small posting lists are joined as before.
	small := flow.Filter(groups, func(g flow.KV[rankings.Item, []T]) bool {
		return len(g.V) <= opts.Delta
	})
	smallPairs := joinTasks(small, opts.Stats, joinSmall)

	// I_{>δ}: split into sub-partitions of at most δ records using the
	// secondary key, then redistribute by the composite (item, sub)
	// key across an increased number of partitions.
	large := flow.Filter(groups, func(g flow.KV[rankings.Item, []T]) bool {
		return len(g.V) > opts.Delta
	})
	type subKey struct {
		Item rankings.Item
		Sub  int
	}
	subs := flow.FlatMap(large, func(g flow.KV[rankings.Item, []T]) []flow.KV[subKey, []T] {
		opts.Stats.addGroup(len(g.V), true)
		listHist.Observe(int64(len(g.V)))
		n := (len(g.V) + opts.Delta - 1) / opts.Delta
		chunks := make([][]T, n)
		for _, rec := range g.V {
			s := subKeyOf(opts.SubKey(rec), g.K, n)
			chunks[s] = append(chunks[s], rec)
		}
		out := make([]flow.KV[subKey, []T], 0, n)
		for s, chunk := range chunks {
			if len(chunk) > 0 {
				out = append(out, flow.KV[subKey, []T]{K: subKey{Item: g.K, Sub: s}, V: chunk})
			}
		}
		return out
	})
	subsSh := flow.PartitionByKey(subs, parts*factor)

	// Per-sub-partition self joins.
	subSelf := joinTasks(subsSh, opts.Stats, func(g flow.KV[subKey, []T], d *obs.FilterDelta) []R {
		return opts.Self(g.K.Item, g.V, d)
	})

	// Self-join the sub-partitions by item id and R-S join every
	// ordered pair of sub-partitions (secondary key of the left below
	// the right, Algorithm 3 step 5 / Figure 5).
	byItem := flow.Map(subsSh, func(g flow.KV[subKey, []T]) flow.KV[rankings.Item, flow.KV[int, []T]] {
		return flow.KV[rankings.Item, flow.KV[int, []T]]{
			K: g.K.Item,
			V: flow.KV[int, []T]{K: g.K.Sub, V: g.V},
		}
	})
	joined := flow.Join(byItem, byItem, parts*factor)
	crossPairs := joinTasks(joined, opts.Stats, func(row flow.KV[rankings.Item, flow.Joined[flow.KV[int, []T], flow.KV[int, []T]]], d *obs.FilterDelta) []R {
		if row.V.Left.K >= row.V.Right.K {
			return nil
		}
		return opts.Cross(row.K, row.V.Left.V, row.V.Right.V, d)
	})

	return flow.Union(smallPairs, flow.Union(subSelf, crossPairs))
}
