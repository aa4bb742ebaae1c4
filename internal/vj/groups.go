// Package vj implements the Vernica-Join adaptation to top-k rankings
// of §4 of the paper on the flow engine, in both variants evaluated:
//
//   - VJ: per-partition PPJoin-style inverted-index join, and
//   - VJ-NL: per-partition nested-loop join over iterators (§4.1), the
//     Spark-friendlier formulation.
//
// It also houses the generic token-group join machinery — prefix
// emission, grouping, and the §6 repartitioning of oversized posting
// lists — which the CL/CL-P pipeline reuses for its clustering and
// centroid-joining phases with its own kernels.
package vj

import (
	"hash/fnv"

	"rankjoin/internal/flow"
	"rankjoin/internal/rankings"
)

// GroupJoinOptions configures JoinTokenGroups. T is the record type
// grouped under each token: plain rankings for VJ, type-tagged
// centroids for the CL joining phase. R is the kernel output type
// (rankings.Pair for VJ, core's tagged centroid pairs for CL).
type GroupJoinOptions[T, R any] struct {
	// Partitions is the shuffle partition count for the grouping
	// stage; non-positive uses the context default.
	Partitions int
	// Delta is the §6 partitioning threshold δ: posting lists longer
	// than Delta are split into sub-partitions of at most Delta
	// records. Zero or negative disables repartitioning.
	Delta int
	// SubKey must return a stable identity for a record; it seeds the
	// deterministic "random" secondary key assignment of records to
	// sub-partitions.
	SubKey func(T) int64
	// Self joins the records of one (sub-)partition against each
	// other. item is the posting-list token the group belongs to.
	Self func(item rankings.Item, members []T) []R
	// Cross joins two sub-partitions of the same posting list against
	// each other (the R-S join of Algorithm 3). Only used when Delta>0.
	Cross func(item rankings.Item, a, b []T) []R
	// Stats, when non-nil, receives group accounting.
	Stats *Stats
}

// PrefixGroups runs the prefix-emission and grouping stages shared by
// every pipeline in the paper: each record is emitted once per prefix
// item and records sharing an item are brought to the same partition.
func PrefixGroups[T any](ds *flow.Dataset[T], prefixItems func(T) []rankings.Item, parts int) *flow.Dataset[flow.KV[rankings.Item, []T]] {
	keyed := flow.FlatMap(ds, func(rec T) []flow.KV[rankings.Item, T] {
		items := prefixItems(rec)
		out := make([]flow.KV[rankings.Item, T], len(items))
		for i, it := range items {
			out[i] = flow.KV[rankings.Item, T]{K: it, V: rec}
		}
		return out
	})
	return flow.GroupByKey(keyed, parts)
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

// JoinTokenGroups turns token groups into join pairs, Algorithm 3
// style: groups within δ are joined directly by the Self kernel; larger
// groups are split into sub-partitions that are redistributed via the
// engine shuffle, self-joined, and then R-S-joined pairwise.
func JoinTokenGroups[T, R any](groups *flow.Dataset[flow.KV[rankings.Item, []T]], opts GroupJoinOptions[T, R]) *flow.Dataset[R] {
	ctx := groups.Context()
	parts := opts.Partitions
	if parts <= 0 {
		parts = ctx.Config().DefaultPartitions
	}
	// Posting-list length distribution — the skew signal δ reacts to.
	listHist := ctx.Histogram("join/posting_list_len")

	if opts.Delta <= 0 {
		// No repartitioning: one kernel invocation per posting list.
		return flow.FlatMap(groups, func(g flow.KV[rankings.Item, []T]) []R {
			opts.Stats.addGroup(len(g.V), false)
			listHist.Observe(int64(len(g.V)))
			return opts.Self(g.K, g.V)
		})
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
	smallPairs := flow.FlatMap(small, func(g flow.KV[rankings.Item, []T]) []R {
		opts.Stats.addGroup(len(g.V), false)
		listHist.Observe(int64(len(g.V)))
		return opts.Self(g.K, g.V)
	})

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
	subSelf := flow.FlatMap(subsSh, func(g flow.KV[subKey, []T]) []R {
		return opts.Self(g.K.Item, g.V)
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
	crossPairs := flow.FlatMap(joined, func(row flow.KV[rankings.Item, flow.Joined[flow.KV[int, []T], flow.KV[int, []T]]]) []R {
		if row.V.Left.K >= row.V.Right.K {
			return nil
		}
		return opts.Cross(row.K, row.V.Left.V, row.V.Right.V)
	})

	return flow.Union(smallPairs, flow.Union(subSelf, crossPairs))
}
