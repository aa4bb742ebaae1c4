package vj

import (
	"fmt"

	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
)

// Variant selects the per-partition join kernel.
type Variant int

const (
	// IndexJoin is the classic VJ formulation: a PPJoin-style inverted
	// index built over every posting-list partition.
	IndexJoin Variant = iota
	// NestedLoop is the VJ-NL formulation of §4.1: iterator-style
	// nested loops with the position filter, no per-partition index.
	NestedLoop
)

func (v Variant) String() string {
	switch v {
	case IndexJoin:
		return "VJ"
	case NestedLoop:
		return "VJ-NL"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Options configures a VJ-style join.
type Options struct {
	// Theta is the normalized Footrule distance threshold θ ∈ [0, 1].
	Theta float64
	// Variant selects the per-partition kernel (default IndexJoin).
	Variant Variant
	// Partitions is the shuffle partition count (0 = context default).
	Partitions int
	// SkipReorder skips the ordering phase: the rankings are joined as
	// given, prefixes taken by ascending item id. On rankings already
	// renumbered by a frequency order (rankings.Order.Renumber) that
	// is the canonical order — the CL pipeline orders once and joins
	// twice this way (§5 "Ordering"). On raw rankings it is the §4
	// ablation: the identity order, which the paper rejects because
	// skewed real-world data profits from reordering.
	SkipReorder bool
	// Delta is the §6 repartitioning threshold δ; 0 disables splitting.
	Delta int
	// LeastTokenDedup, when true, emits each result pair only in the
	// group of the canonically smallest common prefix token instead of
	// deduplicating with a final shuffle — an engine-level alternative
	// to the paper's "remove duplicates at the end" phase, kept as an
	// ablation.
	LeastTokenDedup bool
	// Stats, when non-nil, receives kernel and group accounting.
	Stats *Stats
}

func (o Options) validate(rs []*rankings.Ranking) (k int, err error) {
	if !rankings.ThetaInRange(o.Theta) {
		return 0, fmt.Errorf("vj: theta %v out of [0,1]", o.Theta)
	}
	if k, err = rankings.UniformK(rs); err != nil {
		return 0, fmt.Errorf("vj: %w", err)
	}
	return k, nil
}

// Join finds all pairs of rankings with normalized Footrule distance at
// most opts.Theta, using the Vernica-Join adaptation of §4 on the flow
// engine: frequency ordering and renumbering, prefix emission, grouping
// by token, per-group kernel join, final deduplication.
func Join(ctx *flow.Context, rs []*rankings.Ranking, opts Options) ([]rankings.Pair, error) {
	ds := flow.Parallelize(ctx, rs, opts.Partitions)
	pairs, err := JoinDataset(ds, rs, opts)
	if err != nil {
		return nil, err
	}
	return pairs.Collect()
}

// JoinDataset is Join without the final collect, for callers composing
// further stages. rs must be the same records the dataset holds. With
// opts.SkipReorder those records must be indexed: their prefixes are
// read from the position index (rankings.Ranking.Prefix).
func JoinDataset(ds *flow.Dataset[*rankings.Ranking], rs []*rankings.Ranking, opts Options) (*flow.Dataset[rankings.Pair], error) {
	k, err := opts.validate(rs)
	if err != nil {
		return nil, err
	}
	ctx := ds.Context()
	if len(rs) == 0 {
		return flow.Parallelize(ctx, []rankings.Pair(nil), 1), nil
	}
	maxDist := rankings.Threshold(opts.Theta, k)

	if !opts.SkipReorder {
		ord, _, err := ComputeOrder(ds, opts.Partitions)
		if err != nil {
			return nil, err
		}
		ds = flow.Map(ds, ord.Renumber)
	}

	prefix := filters.PrefixOverlap(maxDist, k)
	catchAll := filters.MinOverlap(maxDist, k) == 0
	groups := PrefixGroups(ds, func(r *rankings.Ranking) []rankings.Item {
		return PrefixTokens(r, prefix, catchAll)
	}, opts.Partitions)

	pairs := JoinTokenGroups(groups, GroupJoinOptions[*rankings.Ranking, rankings.Pair]{
		Partitions: opts.Partitions,
		Delta:      opts.Delta,
		SubKey:     func(r *rankings.Ranking) int64 { return r.ID },
		Self:       selfKernel(ctx.Filters(), prefix, maxDist, opts),
		Cross:      crossKernel(ctx.Filters(), prefix, maxDist, opts),
		Stats:      opts.Stats,
	})

	if opts.LeastTokenDedup {
		// Each pair was emitted exactly once; no dedup shuffle needed.
		return pairs, nil
	}
	return flow.Distinct(pairs, opts.Partitions), nil
}

// PrefixTokens returns the tokens r is emitted under: its p-prefix
// (rankings.Ranking.Prefix), plus CatchAllItem when catchAll is set.
// Callers set it in the degenerate regime MinOverlap(maxDist, k) == 0:
// a threshold that loose admits zero-overlap result pairs, which no
// posting list can deliver, so every record also goes to the catch-all
// group (whose kernels must be complete nested loops). Without the
// catch-all the result aliases r's index and is read-only.
func PrefixTokens(r *rankings.Ranking, p int, catchAll bool) []rankings.Item {
	items, _ := r.Prefix(p)
	if catchAll {
		items = append(items, rankings.CatchAllItem) // Prefix caps its result: this copies
	}
	return items
}

// ComputeOrder counts item frequencies with a distributed ReduceByKey
// and builds the ascending-frequency canonical order — the first VJ
// phase of §3.1/§4. The counts are
// returned alongside it: the collect is an all-gather, so every SPMD
// worker holds the identical map, and CL-P plans its δ from it without
// a second counting pass.
func ComputeOrder(ds *flow.Dataset[*rankings.Ranking], parts int) (*rankings.Order, map[rankings.Item]int64, error) {
	tokens := flow.FlatMap(ds, func(r *rankings.Ranking) []flow.KV[rankings.Item, int64] {
		out := make([]flow.KV[rankings.Item, int64], len(r.Items))
		for i, it := range r.Items {
			out[i] = flow.KV[rankings.Item, int64]{K: it, V: 1}
		}
		return out
	})
	counted, err := flow.ReduceByKey(tokens, parts, func(a, b int64) int64 { return a + b }).Collect()
	if err != nil {
		return nil, nil, err
	}
	counts := make(map[rankings.Item]int64, len(counted))
	for _, kv := range counted {
		counts[kv.K] = kv.V
	}
	return rankings.NewOrder(counts), counts, nil
}

// selfKernel builds the within-partition kernel for the selected
// variant. The ledger accumulates locally and folds once per
// invocation into both the caller's Stats and the engine-wide filter
// counters fc.
func selfKernel(fc *obs.FilterCounters, prefix, maxDist int, opts Options) func(rankings.Item, []*rankings.Ranking) []rankings.Pair {
	return func(item rankings.Item, members []*rankings.Ranking) []rankings.Pair {
		var d obs.FilterDelta
		var out []rankings.Pair
		if item == rankings.CatchAllItem || opts.Variant == NestedLoop {
			// Members of the catch-all group need not share any item,
			// so the prefix-index kernel would miss pairs; the nested
			// loop is complete.
			out = ppjoin.NestedLoop(members, maxDist, &d)
		} else {
			out = ppjoin.PrefixIndex(members, prefix, maxDist, &d)
		}
		if opts.LeastTokenDedup {
			out = filterLeastToken(prefix, item, members, out)
		}
		opts.Stats.Tally(fc, d)
		return out
	}
}

// crossKernel builds the R-S kernel used between sub-partitions. With
// least-token deduplication, the same filter applies: the pair is kept
// only in the sub-partitions of its minimal shared prefix token.
func crossKernel(fc *obs.FilterCounters, prefix, maxDist int, opts Options) func(rankings.Item, []*rankings.Ranking, []*rankings.Ranking) []rankings.Pair {
	return func(item rankings.Item, a, b []*rankings.Ranking) []rankings.Pair {
		var d obs.FilterDelta
		out := ppjoin.RS(a, b, maxDist, &d)
		if opts.LeastTokenDedup {
			members := make([]*rankings.Ranking, 0, len(a)+len(b))
			members = append(members, a...)
			members = append(members, b...)
			out = filterLeastToken(prefix, item, members, out)
		}
		opts.Stats.Tally(fc, d)
		return out
	}
}

// filterLeastToken keeps only the pairs whose group token is the
// smallest token shared by both rankings' prefixes
// (CatchAllItem when the prefixes are disjoint — such a pair is only
// ever generated in the catch-all group). Because every result pair
// co-occurs in exactly the groups of its shared prefix tokens, this
// emits each pair exactly once across the whole job, replacing the
// final dedup shuffle.
func filterLeastToken(prefix int, groupToken rankings.Item, members []*rankings.Ranking, pairs []rankings.Pair) []rankings.Pair {
	if len(pairs) == 0 {
		return pairs
	}
	byID := make(map[int64]*rankings.Ranking, len(members))
	for _, m := range members {
		byID[m.ID] = m
	}
	out := pairs[:0]
	for _, p := range pairs {
		if rankings.MinCommon(byID[p.A], byID[p.B], prefix) == groupToken {
			out = append(out, p)
		}
	}
	return out
}
