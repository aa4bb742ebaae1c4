package core

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// expandInputs bundles what Algorithm 2 needs: the joining-phase result
// Rj (cpairs), the clustering-phase result Rc (clusterPairs and the
// clusters view of it), and the ranking dictionary for verification.
type expandInputs struct {
	thresholds   thresholds
	opts         Options
	filters      *obs.FilterCounters
	dict         flow.Broadcast[map[int64]*rankings.Ranking]
	clusterPairs *flow.Dataset[rankings.Pair]
	clusters     *flow.Dataset[flow.KV[int64, []Member]]
	cpairs       *flow.Dataset[CPair]
}

// flush folds one row's ledger into the run stats and the engine
// filter counters, so the hot candidate loops touch no atomics.
func (in expandInputs) flush(d obs.FilterDelta) {
	if st := in.opts.Stats; st != nil {
		st.Expansion.Add(d)
	}
	in.filters.Add(d)
}

// expand computes the final result set per Algorithm 2:
//
//	Rs  (both centroids singleton)          → written out directly;
//	Rj pairs within θ                       → results themselves;
//	clustering pairs within θ               → results (centroid–member);
//	same-cluster member pairs               → certified by 2θc ≤ θ or verified;
//	Rm ⋈ clusters                           → member–centroid candidates, triangle-filtered;
//	(Rm ⋈ clusters) ⋈ clusters              → member–member candidates, two-pivot-filtered.
func expand(in expandInputs) *flow.Dataset[rankings.Pair] {
	t := in.thresholds
	opts := in.opts

	// Direct results: any retrieved centroid pair already within θ.
	// This covers all of Rs (singleton pairs are only retrieved within
	// θ) plus the Rm pairs whose centroids are themselves close.
	direct := flow.FlatMap(in.cpairs, func(p CPair) []rankings.Pair {
		if p.Dist <= t.f {
			return []rankings.Pair{{A: p.A, B: p.B, Dist: p.Dist}}
		}
		return nil
	})

	// Centroid–member pairs from the clustering phase: results whenever
	// θc ≤ θ (filtered for the general case).
	centroidMember := flow.Filter(in.clusterPairs, func(p rankings.Pair) bool {
		return p.Dist <= t.f
	})

	// Same-cluster member–member pairs: d(mi, mj) ≤ 2θc by the triangle
	// inequality, so when 2θc ≤ θ the paper writes them out directly.
	sameCluster := flow.FlatMap(in.clusters, func(g flow.KV[int64, []Member]) []rankings.Pair {
		var d obs.FilterDelta
		var out []rankings.Pair
		for i := 0; i < len(g.V); i++ {
			for j := i + 1; j < len(g.V); j++ {
				mi, mj := g.V[i], g.V[j]
				if mi.ID == mj.ID {
					continue
				}
				if p, ok := resolveCandidate(in, &d, mi.ID, mj.ID,
					filters.TrianglePrune(mi.Dist, mj.Dist, t.f), filters.TriangleAccept(mi.Dist, mj.Dist, t.f)); ok {
					out = append(out, p)
				}
			}
		}
		in.flush(d)
		return out
	})

	// Rm: pairs with at least one non-singleton centroid must be
	// expanded against the clusters. Each expandable side becomes one
	// keyed row (the paper's "transform so the centroids are keys").
	type pairRec struct {
		Other     int64
		Dist      int // d(centroid, Other)
		OtherSing bool
	}
	exp1 := flow.FlatMap(in.cpairs, func(p CPair) []flow.KV[int64, pairRec] {
		var rows []flow.KV[int64, pairRec]
		if !p.ASing {
			rows = append(rows, flow.KV[int64, pairRec]{K: p.A, V: pairRec{Other: p.B, Dist: p.Dist, OtherSing: p.BSing}})
		}
		if !p.BSing {
			rows = append(rows, flow.KV[int64, pairRec]{K: p.B, V: pairRec{Other: p.A, Dist: p.Dist, OtherSing: p.ASing}})
		}
		return rows
	})
	j1 := flow.Join(exp1, in.clusters, opts.Partitions)

	// Rm,c: member-of-c against the other centroid, pruned with the
	// single-pivot triangle bound |d(c, other) − d(τ, c)| ≤ d(τ, other).
	rmc := flow.FlatMap(j1, func(row flow.KV[int64, flow.Joined[pairRec, []Member]]) []rankings.Pair {
		rec := row.V.Left
		var d obs.FilterDelta
		var out []rankings.Pair
		for _, m := range row.V.Right {
			if m.ID == rec.Other {
				continue
			}
			if p, ok := resolveCandidate(in, &d, m.ID, rec.Other,
				filters.TrianglePrune(rec.Dist, m.Dist, t.f), filters.TriangleAccept(rec.Dist, m.Dist, t.f)); ok {
				out = append(out, p)
			}
		}
		in.flush(d)
		return out
	})

	// Rm,m: when both centroids are non-singletons, the members of the
	// two clusters are joined against each other. The second join keys
	// the row by the other centroid ("switching the places of the
	// centroids", Example 5.4) — emitted once per unordered pair by the
	// key < other condition.
	type step2Rec struct {
		CDist   int // d(ci, cj)
		Members []Member
	}
	step2 := flow.FlatMap(j1, func(row flow.KV[int64, flow.Joined[pairRec, []Member]]) []flow.KV[int64, step2Rec] {
		rec := row.V.Left
		if rec.OtherSing || row.K >= rec.Other {
			return nil
		}
		return []flow.KV[int64, step2Rec]{{
			K: rec.Other,
			V: step2Rec{CDist: rec.Dist, Members: row.V.Right},
		}}
	})
	j2 := flow.Join(step2, in.clusters, opts.Partitions)
	rmm := flow.FlatMap(j2, func(row flow.KV[int64, flow.Joined[step2Rec, []Member]]) []rankings.Pair {
		rec := row.V.Left
		var d obs.FilterDelta
		var out []rankings.Pair
		for _, mi := range rec.Members {
			for _, mj := range row.V.Right {
				if mi.ID == mj.ID {
					continue
				}
				if p, ok := resolveCandidate(in, &d, mi.ID, mj.ID,
					filters.TwoPivotPrune(rec.CDist, mi.Dist, mj.Dist, t.f), filters.TriangleAccept(mi.Dist+rec.CDist, mj.Dist, t.f)); ok {
					out = append(out, p)
				}
			}
		}
		in.flush(d)
		return out
	})
	return flow.Union(direct,
		flow.Union(centroidMember,
			flow.Union(sameCluster,
				flow.Union(rmc, rmm))))
}

// resolveCandidate decides one expansion candidate (a, b) given what
// the triangle inequality says about it: prune when its lower bound
// exceeds θ, accept unverified when allowed and its upper bound
// certifies the pair, otherwise resolve the two rankings from the
// dictionary through the shared cascade. Counts land in d; the caller
// flushes once per row.
func resolveCandidate(in expandInputs, d *obs.FilterDelta, a, b int64, prune, accept bool) (rankings.Pair, bool) {
	d.Generated++
	if !in.opts.NoTriangleFilter {
		if prune {
			d.PrunedTriangle++
			return rankings.Pair{}, false
		}
		if accept && in.opts.UnverifiedPartials {
			d.AcceptedUnverified++
			d.Emitted++
			return rankings.NewPair(a, b, -1), true
		}
	}
	dict := in.dict.Value()
	if dist, ok := filters.Resolve(dict[a], dict[b], in.thresholds.f, d); ok {
		return rankings.NewPair(a, b, dist), true
	}
	return rankings.Pair{}, false
}
