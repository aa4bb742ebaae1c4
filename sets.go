package rankjoin

import (
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
)

// This file exposes the paper's stated outlook (§8): the same
// prefix-filtering machinery applied to plain sets under Jaccard
// similarity, so applications can join set-valued data (baskets, tag
// sets) alongside rankings.

// SetPair is one set-join result: record ids in canonical order and
// their Jaccard similarity.
type SetPair = ppjoin.SetPair

// JoinSets returns all pairs of token sets with Jaccard similarity at
// least minSim ∈ (0, 1], using prefix filtering with length and overlap
// filters. Duplicate tokens within a set are ignored.
func JoinSets(sets map[int64][]int32, minSim float64) ([]SetPair, error) {
	recs := ppjoin.BuildSetRecords(sets)
	return ppjoin.JaccardJoin(recs, minSim, new(obs.FilterDelta))
}

// JaccardSim computes |a ∩ b| / |a ∪ b| for two token sets.
func JaccardSim(a, b []int32) float64 { return ppjoin.Jaccard(a, b) }
