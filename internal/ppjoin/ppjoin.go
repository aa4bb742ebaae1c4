// Package ppjoin provides the in-memory similarity-join kernels that
// the distributed algorithms execute inside partitions: a brute-force
// oracle, a nested-loop kernel over the shared filter cascade (the VJ-NL
// per-partition join of §4.1), a PPJoin-style prefix-index kernel (the
// classic VJ per-partition join), and an R-S kernel across two lists
// (used when repartitioned sub-partitions are joined pairwise, §6).
//
// All kernels emit canonical pairs (smaller id first), never pair a
// ranking with itself, take the threshold as an unnormalized Footrule
// distance, and tally every candidate's fate into the caller's ledger
// d, which must not be nil.
package ppjoin

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// BruteForce verifies every pair — the correctness oracle for tests and
// the baseline for the smallest inputs.
func BruteForce(rs []*rankings.Ranking, maxDist int, d *obs.FilterDelta) []rankings.Pair {
	var out []rankings.Pair
	for i := 0; i < len(rs); i++ {
		for j := i + 1; j < len(rs); j++ {
			if rs[i].ID == rs[j].ID {
				continue
			}
			d.Generated++
			d.Verified++
			if dist, ok := rankings.FootruleWithin(rs[i], rs[j], maxDist); ok {
				d.Emitted++
				out = append(out, rankings.NewPair(rs[i].ID, rs[j].ID, dist))
			}
		}
	}
	return out
}

// NestedLoop joins a partition by walking ordered pairs with an
// iterator-style nested loop, resolving each through the shared filter
// cascade. This is the Spark-friendly kernel the paper advocates in
// §4.1 — no per-partition index, no retained state beyond the two
// cursors.
func NestedLoop(rs []*rankings.Ranking, maxDist int, d *obs.FilterDelta) []rankings.Pair {
	var out []rankings.Pair
	for i := 0; i < len(rs); i++ {
		a := rs[i]
		for j := i + 1; j < len(rs); j++ {
			b := rs[j]
			if a.ID == b.ID {
				continue
			}
			d.Generated++
			if dist, ok := filters.Resolve(a, b, maxDist, d); ok {
				out = append(out, rankings.NewPair(a.ID, b.ID, dist))
			}
		}
	}
	return out
}

// PrefixIndex joins a partition PPJoin-style: the prefixes of all
// rankings (rankings.Ranking.Prefix) are indexed with an inverted
// index; only pairs sharing a prefix item become candidates, pruned
// item-by-item with the position filter while scanning posting lists,
// then resolved. This mirrors the
// in-memory join Vernica et al. run inside each reducer, including the
// memory profile the paper criticizes in §4.1: the whole partition is
// indexed before any pair is emitted.
//
// prefix is the number of prefix items to index (derived by the caller
// from maxDist via filters.PrefixOverlap). The rankings must be indexed.
func PrefixIndex(rs []*rankings.Ranking, prefix, maxDist int, d *obs.FilterDelta) []rankings.Pair {
	// Posting list entry: ranking index plus the item's original rank,
	// so the position filter applies without a Pos lookup.
	type posting struct {
		idx  int
		rank int32
	}
	index := make(map[rankings.Item][]posting)
	seen := make(map[[2]int64]struct{})
	var out []rankings.Pair
	for i, r := range rs {
		items, ranks := r.Prefix(prefix)
		for j, it := range items {
			rank := ranks[j]
			for _, p := range index[it] {
				other := rs[p.idx]
				if other.ID == r.ID {
					continue
				}
				key := [2]int64{other.ID, r.ID}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				d.Generated++
				if filters.PositionPruneItem(rank, p.rank, maxDist) {
					d.PrunedPrefix++
					continue
				}
				if dist, ok := filters.Resolve(r, other, maxDist, d); ok {
					out = append(out, rankings.NewPair(r.ID, other.ID, dist))
				}
			}
			index[it] = append(index[it], posting{idx: i, rank: rank})
		}
	}
	return out
}

// RS joins two lists against each other (no pairs within a list) —
// the R-S join executed between two sub-partitions of a split posting
// list (§6, Algorithm 3).
func RS(r, s []*rankings.Ranking, maxDist int, d *obs.FilterDelta) []rankings.Pair {
	var out []rankings.Pair
	for _, a := range r {
		for _, b := range s {
			if a.ID == b.ID {
				continue
			}
			d.Generated++
			if dist, ok := filters.Resolve(a, b, maxDist, d); ok {
				out = append(out, rankings.NewPair(a.ID, b.ID, dist))
			}
		}
	}
	return out
}
