package vj

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/ppjoin"
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
// over the union of both datasets. opts.Variant is ignored (the kernel
// is always the nested cross loop with the position filter);
// opts.Delta and opts.LeastTokenDedup are honored.
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

	ord, err := opts.resolveOrderTagged(ds)
	if err != nil {
		return nil, err
	}
	ordB := flow.NewBroadcast(ctx, ord)

	prefix := filters.PrefixOverlap(maxDist, k)
	// Degenerate regime: thresholds admitting zero-overlap pairs need
	// the catch-all group (see CatchAllItem); the kernels here are
	// nested cross loops, so that group is handled completely.
	needAll := filters.MinOverlap(maxDist, k) == 0
	groups := PrefixGroups(ds, func(t tagged) []rankings.Item {
		items := ordB.Value().Prefix(t.R, prefix)
		if needAll {
			items = append(append([]rankings.Item(nil), items...), rankings.CatchAllItem)
		}
		return items
	}, opts.Partitions)

	// emit verifies one (R-side x, S-side y) candidate, tallying its
	// fate so R-S joins honor the same filter-counter conservation law
	// as the self-joins.
	emit := func(item rankings.Item, x, y tagged, st *ppjoin.Stats, out []rankings.Pair) []rankings.Pair {
		if opts.LeastTokenDedup &&
			minCommonToken(ordB.Value(), prefix, x.R, y.R) != item {
			return out
		}
		st.Candidates++
		if xk := x.R.K(); y.R.K() == xk {
			xsig, xpop := x.R.Signature()
			ysig, ypop := y.R.Signature()
			if filters.SignaturePrune(xsig, xpop, ysig, ypop, xk, maxDist) {
				st.PrunedSignature++
				return out
			}
		}
		if filters.PositionPrune(x.R, y.R, maxDist) {
			st.PrunedPosition++
			return out
		}
		st.Verified++
		if d, ok := rankings.FootruleWithin(x.R, y.R, maxDist); ok {
			st.Results++
			out = append(out, rankings.Pair{A: x.R.ID, B: y.R.ID, Dist: d})
		}
		return out
	}
	fc := ctx.Filters()
	selfKernel := func(item rankings.Item, members []tagged) []rankings.Pair {
		var st ppjoin.Stats
		var out []rankings.Pair
		for _, a := range members {
			if !a.FromR {
				continue
			}
			for _, b := range members {
				if b.FromR {
					continue
				}
				out = emit(item, a, b, &st, out)
			}
		}
		opts.Stats.AddKernel(st)
		fc.Add(st.FilterDelta())
		return out
	}
	crossKernel := func(item rankings.Item, as, bs []tagged) []rankings.Pair {
		var st ppjoin.Stats
		var out []rankings.Pair
		for _, a := range as {
			for _, b := range bs {
				switch {
				case a.FromR && !b.FromR:
					out = emit(item, a, b, &st, out)
				case !a.FromR && b.FromR:
					out = emit(item, b, a, &st, out)
				}
			}
		}
		opts.Stats.AddKernel(st)
		fc.Add(st.FilterDelta())
		return out
	}

	pairs := JoinTokenGroups(groups, GroupJoinOptions[tagged, rankings.Pair]{
		Partitions:        opts.Partitions,
		Delta:             opts.Delta,
		RepartitionFactor: opts.RepartitionFactor,
		SubKey: func(t tagged) int64 {
			// Disambiguate colliding ids across sides so sub-partition
			// assignment stays deterministic per record.
			if t.FromR {
				return t.R.ID * 2
			}
			return t.R.ID*2 + 1
		},
		Self:  selfKernel,
		Cross: crossKernel,
		Stats: opts.Stats,
	})

	var out *flow.Dataset[rankings.Pair]
	if opts.LeastTokenDedup {
		out = pairs
	} else {
		out = flow.Distinct(pairs, opts.Partitions)
	}
	res, err := out.Collect()
	if err != nil {
		return nil, err
	}
	rankings.SortPairs(res)
	return res, nil
}

// resolveOrderTagged computes the frequency order over the tagged
// union dataset (or honors a supplied/identity order).
func (o Options) resolveOrderTagged(ds *flow.Dataset[tagged]) (*rankings.Order, error) {
	if o.Order != nil {
		return o.Order, nil
	}
	if o.SkipReorder {
		return rankings.IdentityOrder(), nil
	}
	plain := flow.Map(ds, func(t tagged) *rankings.Ranking { return t.R })
	ord, _, err := ComputeOrder(plain, o.Partitions)
	return ord, err
}
