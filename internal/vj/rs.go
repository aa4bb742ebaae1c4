package vj

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// This file extends the paper's self-join pipelines to R-S joins
// between two datasets — the natural next operation once the machinery
// exists (the paper's Algorithm 3 already R-S-joins sub-partitions
// internally). Result pairs are (R-side id, S-side id); the two
// datasets have independent id spaces, so pairs are NOT canonicalized
// and A always refers to the R side.

// tagged marks a record with its side.
type tagged struct {
	R     *rankings.Ranking
	FromR bool
}

// JoinRS finds all pairs (r ∈ R, s ∈ S) with normalized Footrule
// distance at most opts.Theta. The canonical item order is computed
// over the union of both datasets, and both sides are renumbered by it
// (unless opts.SkipReorder). opts.Variant is ignored (the kernel
// is always the nested cross loop over the shared filter cascade);
// opts.Delta is honored. The pairs come back in no particular order.
func JoinRS(ctx *flow.Context, r, s []*rankings.Ranking, opts Options) ([]rankings.Pair, error) {
	all := make([]*rankings.Ranking, 0, len(r)+len(s))
	all = append(all, r...)
	all = append(all, s...)
	k, err := opts.validate(all)
	if err != nil {
		return nil, err
	}
	if len(r) == 0 || len(s) == 0 {
		return nil, nil
	}
	maxDist := rankings.Threshold(opts.Theta, k)

	recs := make([]tagged, 0, len(all))
	for _, x := range r {
		recs = append(recs, tagged{R: x, FromR: true})
	}
	for _, x := range s {
		recs = append(recs, tagged{R: x, FromR: false})
	}
	ds := flow.Parallelize(ctx, recs, opts.Partitions)

	if !opts.SkipReorder {
		plain := flow.Map(ds, func(t tagged) *rankings.Ranking { return t.R })
		ord, _, err := ComputeOrder(plain, opts.Partitions)
		if err != nil {
			return nil, err
		}
		ds = flow.Map(ds, func(t tagged) tagged { return tagged{R: ord.Renumber(t.R), FromR: t.FromR} })
	}

	prefix := filters.PrefixOverlap(maxDist, k)
	// The kernels here are nested cross loops, so the catch-all group
	// is handled completely.
	catchAll := filters.MinOverlap(maxDist, k) == 0

	// emit resolves one candidate if x and y come from different sides,
	// tallying its fate so R-S joins honor the same filter-counter
	// conservation law as the self-joins.
	emit := func(x, y tagged, d *obs.FilterDelta, out []rankings.Pair) []rankings.Pair {
		if x.FromR == y.FromR {
			return out
		}
		if !x.FromR {
			x, y = y, x
		}
		d.Generated++
		if dist, ok := filters.Resolve(x.R, y.R, maxDist, d); ok {
			out = append(out, rankings.Pair{A: x.R.ID, B: y.R.ID, Dist: dist})
		}
		return out
	}
	pairs := JoinGroups(ds, GroupJoinOptions[tagged, rankings.Pair]{
		Route: func(t tagged) []rankings.Item { return PrefixTokens(t.R, prefix, catchAll) },
		Self: func(_ rankings.Item, members []tagged, d *obs.FilterDelta) (out []rankings.Pair) {
			for i, a := range members {
				for _, b := range members[i+1:] {
					out = emit(a, b, d, out)
				}
			}
			return out
		},
		Cross: func(_ rankings.Item, as, bs []tagged, d *obs.FilterDelta) (out []rankings.Pair) {
			for _, a := range as {
				for _, b := range bs {
					out = emit(a, b, d, out)
				}
			}
			return out
		},
		SubKey: func(t tagged) int64 {
			// Disambiguate colliding ids across sides so sub-partition
			// assignment stays deterministic per record.
			if t.FromR {
				return t.R.ID * 2
			}
			return t.R.ID*2 + 1
		},
		Delta:      opts.Delta,
		Partitions: opts.Partitions,
		Stats:      opts.Stats,
	})
	return flow.Distinct(pairs, opts.Partitions).Collect()
}
