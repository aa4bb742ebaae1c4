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
// posting lists (a segment aggregates many tokens). Segments are the
// tokens of the shared group-join driver (vj.JoinGroups); the
// home-segment check in the kernel is what makes the output
// duplicate-free without a final distinct.
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
	// Partitions is the shuffle partition count (0 = context default).
	// The canonical order is cut into twice as many segments, or one
	// per item when the vocabulary is smaller.
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

	ds := flow.Parallelize(ctx, rs, opts.Partitions)
	ord, _, err := vj.ComputeOrder(ds, parts)
	if err != nil {
		return nil, err
	}
	// Renumbered items are canonical positions 0..vocab-1, so a
	// segment is a contiguous run of item ids.
	ds = flow.Map(ds, ord.Renumber)
	vocab := ord.Len()
	segments := min(2*parts, vocab)
	segOf := func(item rankings.Item) rankings.Item {
		return rankings.Item(int64(item) * int64(segments) / int64(vocab))
	}
	// Degenerate regime: zero-overlap result pairs go to the catch-all
	// group, which holds everything.
	needAll := filters.MinOverlap(maxDist, k) == 0

	pairs := vj.JoinGroups(ds, vj.GroupJoinOptions[*rankings.Ranking, rankings.Pair]{
		// A ranking goes to every segment where it holds an item. Its
		// index is sorted, so each of those segments is one run of it.
		Route: func(r *rankings.Ranking) []rankings.Item {
			items, _ := r.Prefix(k)
			segs := make([]rankings.Item, 0, len(items)+1)
			for _, it := range items {
				if s := segOf(it); len(segs) == 0 || segs[len(segs)-1] != s {
					segs = append(segs, s)
				}
			}
			if needAll {
				segs = append(segs, rankings.CatchAllItem)
			}
			return segs
		},
		// Only home-segment pairs count as candidates: the same pair
		// enumerated in a foreign segment is a routing artifact, not a
		// filter-cascade decision.
		Self: func(seg rankings.Item, members []*rankings.Ranking, d *obs.FilterDelta) (out []rankings.Pair) {
			for i, a := range members {
				for _, b := range members[i+1:] {
					if a.ID == b.ID {
						continue
					}
					// Emit only in the segment of the canonically smallest
					// common item — FS-Join's no-duplicates property. Pairs
					// with no common item belong to the catch-all group.
					home := rankings.MinCommon(a, b, k)
					if home != rankings.CatchAllItem {
						home = segOf(home)
					}
					if home != seg {
						continue
					}
					d.Generated++
					if dist, ok := filters.Resolve(a, b, maxDist, d); ok {
						out = append(out, rankings.NewPair(a.ID, b.ID, dist))
					}
				}
			}
			return out
		},
		Partitions: opts.Partitions,
	})
	return pairs.Collect()
}
