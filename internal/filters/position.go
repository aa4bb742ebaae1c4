package filters

import "rankjoin/internal/rankings"

// The position filter (from the authors' prior work on top-k-list
// similarity search) prunes a candidate pair as soon as one shared item
// sits at very different ranks: because signed rank displacements over
// the common extended domain sum to zero, a single displacement of Δ
// forces a total Footrule distance of at least 2Δ. Hence
//
//	∃ i ∈ Dτ ∩ Dσ : |τ(i) − σ(i)| > F/2  ⇒  Footrule(τ, σ) > F.

// MaxRankDiff returns the largest rank difference a shared item may
// exhibit in a pair with Footrule distance ≤ maxDist: ⌊F/2⌋.
func MaxRankDiff(maxDist int) int { return maxDist / 2 }

// PositionPrune reports whether the pair (a, b) can be discarded
// because some shared item violates the rank-difference bound for
// maxDist. A false result does NOT imply the pair is within maxDist —
// it must still be verified. On indexed rankings this runs as one
// merged pass over the flat position indexes.
func PositionPrune(a, b *rankings.Ranking, maxDist int) bool {
	return rankings.SharedRankDiffExceeds(a, b, MaxRankDiff(maxDist))
}

// PositionPruneItem is the single-item form used while scanning posting
// lists: given the ranks of one shared item in both rankings, it
// reports whether that item alone already proves the pair distant.
func PositionPruneItem(rankA, rankB int32, maxDist int) bool {
	diff := int(rankA) - int(rankB)
	if diff < 0 {
		diff = -diff
	}
	return 2*diff > maxDist
}
