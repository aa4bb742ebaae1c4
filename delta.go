package rankjoin

import (
	"rankjoin/internal/filters"
	"rankjoin/internal/rankings"
	"rankjoin/internal/stats"
)

// SuggestDelta exposes the Equation 4 guidance for choosing the CL-P
// partitioning threshold δ for a dataset and join threshold: the
// expected posting-list length under the fitted Zipf skew of the prefix
// vocabulary, scaled up so only genuinely skew-inflated lists split.
// It renumbers the rankings by the canonical order and runs the
// planner an auto-δ CL-P join runs inside its ordering phase
// (stats.PlanDelta) on the same counts and renumbered rankings, so it
// returns exactly the δ such a join uses.
//
// The dataset must be uniform-length (ErrMixedLengths otherwise): the
// estimate keys off the prefix size for rs[0]'s k, and a mixed-length
// dataset would silently produce a nonsense δ for every other length.
// Theta must lie in [0, 1] (ErrThetaRange).
func SuggestDelta(rs []*Ranking, theta float64) (int, error) {
	if !rankings.ThetaInRange(theta) {
		return 0, ErrThetaRange
	}
	k, err := rankings.UniformK(rs)
	if err != nil {
		return 0, err
	}
	counts := rankings.ItemCounts(rs)
	ord := rankings.NewOrder(counts)
	renumbered := make([]*rankings.Ranking, len(rs))
	for i, r := range rs {
		renumbered[i] = ord.Renumber(r)
	}
	prefix := filters.PrefixOverlap(rankings.Threshold(theta, k), k)
	delta, _ := stats.PlanDelta(renumbered, counts, prefix)
	return delta, nil
}
