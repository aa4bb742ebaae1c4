// Package vsmart adapts the V-SMART join of Metwally and Faloutsos
// (PVLDB 2012) — one of the MapReduce baselines the paper's related
// work discusses (§2) — to top-k rankings under Spearman's Footrule.
//
// V-SMART computes the "ingredients" of the similarity measure in a
// distributed fashion instead of verifying candidate pairs: partial
// contributions are emitted per shared item and summed by pair key.
// The Footrule distance decomposes exactly this way. Writing
// C = k(k+1)/2 for the distance mass a ranking contributes when
// nothing is shared,
//
//	F(τ, σ) = 2C − Σ_{i ∈ Dτ ∩ Dσ} [ (k−τ(i)) + (k−σ(i)) − |τ(i)−σ(i)| ]
//
// so every shared item contributes an independent, non-negative gain
// g(i) = (k−τ(i)) + (k−σ(i)) − |τ(i)−σ(i)|, and a pair is a result iff
// its summed gain is at least 2C − F.
//
// The algorithm shuffles one record per (posting-list pair) — quadratic
// in posting-list length — which is exactly why the paper's
// prefix-filtering approaches beat it; it is reproduced here as a
// faithful baseline for the comparison benchmarks.
package vsmart

import (
	"fmt"

	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Options configures a V-SMART join.
type Options struct {
	// Theta is the normalized Footrule threshold θ ∈ [0, 1].
	Theta float64
	// Partitions is the shuffle partition count (0 = context default).
	Partitions int
}

// Join finds all pairs within opts.Theta by distributed aggregation of
// per-item gains (joining phase + similarity phase of V-SMART).
func Join(ctx *flow.Context, rs []*rankings.Ranking, opts Options) ([]rankings.Pair, error) {
	if !rankings.ThetaInRange(opts.Theta) {
		return nil, fmt.Errorf("vsmart: theta %v out of [0,1]", opts.Theta)
	}
	if len(rs) == 0 {
		return nil, nil
	}
	k, err := rankings.UniformK(rs)
	if err != nil {
		return nil, fmt.Errorf("vsmart: %w", err)
	}
	maxDist := rankings.Threshold(opts.Theta, k)
	// Required total gain: F ≤ maxDist ⇔ gain ≥ k(k+1) − maxDist.
	needGain := k*(k+1) - maxDist

	ds := flow.Parallelize(ctx, rs, opts.Partitions)

	// Joining phase: build the inverted index — (item, (id, rank)).
	type entry struct {
		ID   int64
		Rank int32
	}
	postings := flow.FlatMap(ds, func(r *rankings.Ranking) []flow.KV[rankings.Item, entry] {
		out := make([]flow.KV[rankings.Item, entry], len(r.Items))
		for rank, it := range r.Items {
			out[rank] = flow.KV[rankings.Item, entry]{K: it, V: entry{ID: r.ID, Rank: int32(rank)}}
		}
		return out
	})
	lists := flow.GroupByKey(postings, opts.Partitions)

	// Similarity phase, step 1: emit the gain of every pair on every
	// posting list.
	listHist := ctx.Histogram("join/posting_list_len")
	gains := flow.FlatMap(lists, func(g flow.KV[rankings.Item, []entry]) []flow.KV[rankings.PairKey, int] {
		listHist.Observe(int64(len(g.V)))
		var out []flow.KV[rankings.PairKey, int]
		for i := 0; i < len(g.V); i++ {
			for j := i + 1; j < len(g.V); j++ {
				a, b := g.V[i], g.V[j]
				if a.ID == b.ID {
					continue
				}
				diff := int(a.Rank) - int(b.Rank)
				if diff < 0 {
					diff = -diff
				}
				gain := (k - int(a.Rank)) + (k - int(b.Rank)) - diff
				key := rankings.PairKey{A: a.ID, B: b.ID}
				if key.A > key.B {
					key.A, key.B = key.B, key.A
				}
				out = append(out, flow.KV[rankings.PairKey, int]{K: key, V: gain})
			}
		}
		return out
	})

	// Similarity phase, step 2: sum the gains per pair and keep pairs
	// reaching the required total. V-SMART has no filter cascade: every
	// aggregated pair's distance is known exactly, so each counts as
	// generated and verified.
	summed := flow.ReduceByKey(gains, opts.Partitions, func(a, b int) int { return a + b })
	results := flow.MapPartitions(summed, func(_ int, in []flow.KV[rankings.PairKey, int]) ([]rankings.Pair, error) {
		var out []rankings.Pair
		var delta obs.FilterDelta
		for _, kv := range in {
			delta.Generated++
			delta.Verified++
			if kv.V >= needGain {
				delta.Emitted++
				out = append(out, rankings.Pair{A: kv.K.A, B: kv.K.B, Dist: k*(k+1) - kv.V})
			}
		}
		ctx.Filters().Add(delta)
		return out, nil
	})
	out, err := results.Collect()
	if err != nil {
		return nil, err
	}
	// Zero-overlap pairs never meet a posting list; when the threshold
	// admits them (needGain ≤ 0) they are all results at the maximum
	// distance — recover them against the aggregated pair set.
	if needGain <= 0 {
		seen := make(map[rankings.PairKey]struct{}, len(out))
		for _, p := range out {
			seen[p.Key()] = struct{}{}
		}
		// Recovered pairs are results the filter ledger never saw:
		// count them as generated/verified/emitted too, or the
		// conservation law (emitted ≥ result pairs) breaks at θ = 1.
		var delta obs.FilterDelta
		for i := 0; i < len(rs); i++ {
			for j := i + 1; j < len(rs); j++ {
				key := rankings.PairKey{A: rs[i].ID, B: rs[j].ID}
				if key.A > key.B {
					key.A, key.B = key.B, key.A
				}
				if _, ok := seen[key]; !ok {
					delta.Generated++
					delta.Verified++
					delta.Emitted++
					out = append(out, rankings.Pair{A: key.A, B: key.B, Dist: k * (k + 1)})
				}
			}
		}
		ctx.Filters().Add(delta)
	}
	return out, nil
}
