// Package clusterjoin implements the anchor-based metric-space
// similarity join in the style of ClusterJoin (Sarma, He, Chaudhuri,
// PVLDB 2014) and Wang et al. (KDD 2013) — the random-centroid
// partitioning family the paper's related work describes (§2) and whose
// drawbacks motivate the CL design (§5.1).
//
// The dataset is partitioned by proximity to m random anchors: every
// ranking lives in the partition of its closest anchor (its home) and
// is replicated into any partition whose anchor is within
// d(p, home) + 2F — the triangle-inequality window guaranteeing that
// every result pair co-occurs in at least one partition with one member
// at home. Partitions are joined independently (home×home and
// home×replica) and duplicates removed.
package clusterjoin

import (
	"fmt"
	"math/rand"

	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Options configures an anchor-based join.
type Options struct {
	// Theta is the normalized Footrule threshold θ ∈ [0, 1].
	Theta float64
	// Anchors is the number of random anchors m (the paper's critique:
	// it must be chosen upfront). 0 picks ~√n.
	Anchors int
	// Partitions is the shuffle partition count (0 = context default).
	Partitions int
	// Seed makes the anchor choice reproducible.
	Seed int64
}

// Stats reports the replication behaviour — the cost knob of this
// algorithm family.
type Stats struct {
	// Anchors is the number of anchors used.
	Anchors int
	// Replicas counts records sent beyond their home partition.
	Replicas int64
	// HomeRecords counts home assignments (== dataset size).
	HomeRecords int64
}

// Join finds all pairs within opts.Theta via anchor partitioning.
func Join(ctx *flow.Context, rs []*rankings.Ranking, opts Options) ([]rankings.Pair, *Stats, error) {
	if !rankings.ThetaInRange(opts.Theta) {
		return nil, nil, fmt.Errorf("clusterjoin: theta %v out of [0,1]", opts.Theta)
	}
	st := &Stats{}
	if len(rs) == 0 {
		return nil, st, nil
	}
	k, err := rankings.UniformK(rs)
	if err != nil {
		return nil, nil, fmt.Errorf("clusterjoin: %w", err)
	}
	maxDist := rankings.Threshold(opts.Theta, k)

	m := opts.Anchors
	if m <= 0 {
		for m*m < len(rs) {
			m++
		}
	}
	if m > len(rs) {
		m = len(rs)
	}
	st.Anchors = m
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(len(rs))
	anchors := make([]*rankings.Ranking, m)
	for i := 0; i < m; i++ {
		anchors[i] = rs[perm[i]]
	}
	anchorsB := flow.NewBroadcast(ctx, anchors)

	// Route every ranking to its home partition and to every partition
	// within the replication window.
	type routed struct {
		R    *rankings.Ranking
		Home bool
	}
	ds := flow.Parallelize(ctx, rs, opts.Partitions)
	routedRecords := flow.FlatMap(ds, func(r *rankings.Ranking) []flow.KV[int, routed] {
		as := anchorsB.Value()
		dists := make([]int, len(as))
		home, homeDist := 0, -1
		for i, a := range as {
			dists[i] = rankings.Footrule(r, a)
			if homeDist < 0 || dists[i] < homeDist {
				home, homeDist = i, dists[i]
			}
		}
		out := []flow.KV[int, routed]{{K: home, V: routed{R: r, Home: true}}}
		window := homeDist + 2*maxDist
		for i, d := range dists {
			if i != home && d <= window {
				out = append(out, flow.KV[int, routed]{K: i, V: routed{R: r}})
			}
		}
		return out
	})
	groups := flow.GroupByKey(routedRecords, opts.Partitions)

	// Per-partition join: home×home plus home×replica. Filter counters
	// accumulate locally and fold once per partition.
	partHist := ctx.Histogram("clusterjoin/partition_records")
	pairs := flow.FlatMap(groups, func(g flow.KV[int, []routed]) []rankings.Pair {
		partHist.Observe(int64(len(g.V)))
		var homes, reps []*rankings.Ranking
		for _, rec := range g.V {
			if rec.Home {
				homes = append(homes, rec.R)
			} else {
				reps = append(reps, rec.R)
			}
		}
		var out []rankings.Pair
		var delta obs.FilterDelta
		verify := func(a, b *rankings.Ranking) {
			if a.ID == b.ID {
				return
			}
			delta.Generated++
			if d, ok := filters.Resolve(a, b, maxDist, &delta); ok {
				out = append(out, rankings.NewPair(a.ID, b.ID, d))
			}
		}
		for i := 0; i < len(homes); i++ {
			for j := i + 1; j < len(homes); j++ {
				verify(homes[i], homes[j])
			}
			for _, rep := range reps {
				verify(homes[i], rep)
			}
		}
		ctx.Filters().Add(delta)
		return out
	})

	out, err := flow.Distinct(pairs, opts.Partitions).Collect()
	if err != nil {
		return nil, nil, err
	}
	st.HomeRecords = int64(len(rs))
	// Replica count: total routed records minus homes.
	total, err := routedRecords.Count()
	if err != nil {
		return nil, nil, err
	}
	st.Replicas = total - int64(len(rs))
	return rankings.DedupPairs(out), st, nil
}
