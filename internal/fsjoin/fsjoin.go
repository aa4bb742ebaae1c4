// Package fsjoin adapts FS-Join (Rong et al., ICDE 2017) — the
// segment-partitioned set-similarity join from the paper's related work
// (§2) — to top-k rankings under the Footrule distance.
//
// FS-Join partitions the data vertically: the canonical (frequency)
// token order is cut into f contiguous segments, every record is routed
// to each segment where it holds at least one token, and each segment
// is joined independently. Its two selling points are reproduced:
// no duplicate results (a pair is emitted only in the segment of its
// canonically smallest common token) and smoother load than one-token
// posting lists (a segment aggregates many tokens).
package fsjoin

import (
	"fmt"

	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/vj"
)

// Options configures an FS-Join run.
type Options struct {
	// Theta is the normalized Footrule threshold θ ∈ [0, 1].
	Theta float64
	// Segments is the number of vertical segments f (the paper tunes
	// it per dataset); 0 picks 2× the partition count.
	Segments int
	// Partitions is the shuffle partition count (0 = context default).
	Partitions int
}

// Join finds all pairs within opts.Theta via segment partitioning.
func Join(ctx *flow.Context, rs []*rankings.Ranking, opts Options) ([]rankings.Pair, error) {
	if !rankings.ThetaInRange(opts.Theta) {
		return nil, fmt.Errorf("fsjoin: theta %v out of [0,1]", opts.Theta)
	}
	if len(rs) == 0 {
		return nil, nil
	}
	k, err := rankings.UniformK(rs)
	if err != nil {
		return nil, fmt.Errorf("fsjoin: %w", err)
	}
	maxDist := rankings.Threshold(opts.Theta, k)

	parts := opts.Partitions
	if parts <= 0 {
		parts = ctx.Config().DefaultPartitions
	}
	segments := opts.Segments
	if segments <= 0 {
		segments = 2 * parts
	}

	ds := flow.Parallelize(ctx, rs, opts.Partitions)
	ord, _, err := vj.ComputeOrder(ds, parts)
	if err != nil {
		return nil, err
	}
	// Renumbered items are canonical positions 0..vocab-1, so a
	// segment is a contiguous run of item ids.
	ds = flow.Map(ds, ord.Renumber)
	vocab := ord.Len()
	if vocab < segments {
		segments = vocab
	}
	segOf := func(item rankings.Item) int {
		return int(int64(item) * int64(segments) / int64(vocab))
	}
	// Degenerate regime: zero-overlap result pairs (see
	// rankings.CatchAllItem) go to an extra segment holding everything.
	needAll := filters.MinOverlap(maxDist, k) == 0

	routed := flow.FlatMap(ds, func(r *rankings.Ranking) []flow.KV[int, *rankings.Ranking] {
		seen := make(map[int]struct{}, 4)
		var out []flow.KV[int, *rankings.Ranking]
		for _, it := range r.Items {
			s := segOf(it)
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, flow.KV[int, *rankings.Ranking]{K: s, V: r})
			}
		}
		if needAll {
			out = append(out, flow.KV[int, *rankings.Ranking]{K: segments, V: r})
		}
		return out
	})
	groups := flow.GroupByKey(routed, parts)

	segHist := ctx.Histogram("fsjoin/segment_records")
	pairs := flow.FlatMap(groups, func(g flow.KV[int, []*rankings.Ranking]) []rankings.Pair {
		segHist.Observe(int64(len(g.V)))
		var out []rankings.Pair
		// Only home-segment pairs count as candidates: the same pair
		// enumerated in a foreign segment is a routing artifact, not a
		// filter-cascade decision.
		var delta obs.FilterDelta
		for i := 0; i < len(g.V); i++ {
			a := g.V[i]
			for j := i + 1; j < len(g.V); j++ {
				b := g.V[j]
				if a.ID == b.ID {
					continue
				}
				// Emit only in the segment of the canonically smallest
				// common item — FS-Join's no-duplicates property. Pairs
				// with no common item belong to the catch-all segment.
				home := segments
				if it := rankings.MinCommon(a, b, k); it != rankings.CatchAllItem {
					home = segOf(it)
				}
				if home != g.K {
					continue
				}
				delta.Generated++
				if d, ok := filters.Resolve(a, b, maxDist, &delta); ok {
					out = append(out, rankings.NewPair(a.ID, b.ID, d))
				}
			}
		}
		ctx.Filters().Add(delta)
		return out
	})
	out, err := pairs.Collect()
	if err != nil {
		return nil, err
	}
	rankings.SortPairs(out)
	return out, nil
}
