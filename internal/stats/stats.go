// Package stats implements the statistical tooling of the paper's §6:
// the Zipf item-frequency model, the posting-list length estimate of
// Equation 4, the derived guidance for choosing the partitioning
// threshold δ, and skew estimation for real datasets.
package stats

import (
	"math"
	"sort"

	"rankjoin/internal/rankings"
)

// harmonic computes the generalized harmonic number H(v, s).
func harmonic(v int, s float64) float64 {
	h := 0.0
	for i := 1; i <= v; i++ {
		h += math.Pow(float64(i), -s)
	}
	return h
}

// ExpectedPostingListLength implements Equation 4 of the paper:
//
//	E[index list length] = Σ_i n · f(i; s, v')²
//
// where n is the number of rankings indexed, v' the number of distinct
// items appearing in prefixes, and s the Zipf skew. It estimates the
// average length of a prefix-index posting list, the quantity the
// partitioning threshold δ should be calibrated against.
//
// f(i; s, v') = i^-s / H(v', s) is the Zipf probability of the item
// with frequency rank i. H does not depend on i and is computed once:
// recomputing it per term would make the sum O(v'²) math.Pow calls,
// seconds on the auto-δ join's critical path at v' ≈ 10⁵.
func ExpectedPostingListLength(n int, s float64, vPrime int) float64 {
	if n <= 0 || vPrime <= 0 {
		return 0
	}
	h := harmonic(vPrime, s)
	sum := 0.0
	for i := 1; i <= vPrime; i++ {
		f := math.Pow(float64(i), -s) / h
		sum += float64(n) * f * f
	}
	return sum
}

// PlanDelta derives the CL-P partitioning threshold for a dataset —
// renumbered by the canonical order (rankings.Order.Renumber) — from
// its item frequency counts and the prefix size of the join threshold:
// Equation 4 under the fitted skew over the prefix vocabulary, times
// four and floored at 16 so that only genuinely skew-inflated lists
// are split (the paper warns against very small δ). It is the one
// planner behind both the public SuggestDelta and the auto-δ CL-P
// join, which calls it with the counts and renumbered rankings its
// ordering phase already holds. The Equation 4 estimate is returned
// with δ so a run can report the prediction next to the lists it
// actually built.
func PlanDelta(rs []*rankings.Ranking, counts map[rankings.Item]int64, prefix int) (delta int, predictedLen float64) {
	vPrime := PrefixVocabulary(rs, prefix)
	predictedLen = ExpectedPostingListLength(len(rs)*prefix, EstimateSkew(counts), vPrime)
	return max(int(4*predictedLen), 16), predictedLen
}

// EstimateSkew fits a Zipf skew parameter to observed item frequencies
// with a least-squares regression of log(frequency) on log(rank).
// Returns 0 for degenerate inputs (fewer than two distinct items).
func EstimateSkew(counts map[rankings.Item]int64) float64 {
	freqs := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			freqs = append(freqs, float64(c))
		}
	}
	if len(freqs) < 2 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	var sx, sy, sxx, sxy float64
	n := float64(len(freqs))
	for i, f := range freqs {
		x := math.Log(float64(i + 1))
		y := math.Log(f)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0
	}
	slope := (n*sxy - sx*sy) / denom
	return -slope
}

// PrefixVocabulary counts the distinct items that appear within the
// p-prefixes (rankings.Ranking.Prefix) of the dataset's rankings — the
// v' of Equation 4 when the rankings are renumbered by the canonical
// order. The rankings must be indexed.
func PrefixVocabulary(rs []*rankings.Ranking, p int) int {
	seen := map[rankings.Item]struct{}{}
	for _, r := range rs {
		items, _ := r.Prefix(p)
		for _, it := range items {
			seen[it] = struct{}{}
		}
	}
	return len(seen)
}
