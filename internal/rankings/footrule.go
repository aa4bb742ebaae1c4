package rankings

import "math"

// This file implements the top-k adaptation of Spearman's Footrule
// distance from Fagin, Kumar and Sivakumar, "Comparing Top k Lists"
// (SIAM J. Discrete Math. 2003), as used throughout the paper:
//
//	F(τ, σ) = Σ_{i ∈ Dτ ∪ Dσ} |τ(i) − σ(i)|
//
// with ranks 0..k-1 and the artificial rank l = k for items a ranking
// does not contain. Under that convention the distance is a metric,
// ranges over [0, k(k+1)] for same-length rankings, and is normalized
// to [0, 1] by dividing by k(k+1).

// MaxFootrule returns the largest possible (unnormalized) Footrule
// distance between two top-k rankings of length k: k·(k+1), attained
// exactly by domain-disjoint rankings.
func MaxFootrule(k int) int { return k * (k + 1) }

// Footrule computes the unnormalized top-k Footrule distance between a
// and b. Both rankings must have the same length k; the artificial rank
// for missing items is l = k.
//
// When both rankings carry their flat position index (see
// Ranking.Index) the distance is computed in one merged pass over the
// two sorted (item, rank) arrays — no per-item lookups at all. Without
// indexes it degrades to O(k²) scans, which is still fast for the small
// k (10–25) the paper considers.
func Footrule(a, b *Ranking) int {
	if a.idxItems != nil && b.idxItems != nil {
		return footruleMerged(a, b)
	}
	k := len(a.Items)
	d := 0
	for rank, it := range a.Items {
		if rb, ok := b.Pos(it); ok {
			d += abs(rank - int(rb))
		} else {
			d += k - rank
		}
	}
	for rank, it := range b.Items {
		if !a.Contains(it) {
			d += k - rank
		}
	}
	return d
}

// footruleMerged walks the two flat indexes like a sorted-list merge:
// shared items contribute their rank difference, unmatched items the
// missing-item penalty k − rank. One pass, no probes.
func footruleMerged(a, b *Ranking) int {
	k := len(a.Items)
	ai, ar := a.idxItems, a.idxRanks
	bi, br := b.idxItems, b.idxRanks
	d := 0
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		switch {
		case ai[i] == bi[j]:
			d += abs(int(ar[i]) - int(br[j]))
			i++
			j++
		case ai[i] < bi[j]:
			d += k - int(ar[i])
			i++
		default:
			d += k - int(br[j])
			j++
		}
	}
	for ; i < len(ai); i++ {
		d += k - int(ar[i])
	}
	for ; j < len(bi); j++ {
		d += k - int(br[j])
	}
	return d
}

// FootruleNorm computes the Footrule distance normalized to [0, 1] by
// the maximum distance k(k+1).
func FootruleNorm(a, b *Ranking) float64 {
	return float64(Footrule(a, b)) / float64(MaxFootrule(len(a.Items)))
}

// ThetaInRange reports whether θ is a normalized distance threshold,
// i.e. lies in [0, 1]. Written so that NaN, which is neither below 0
// nor above 1, is out of range: Threshold's int(NaN) is
// platform-defined, and every entry point that takes a θ checks it
// here first.
func ThetaInRange(theta float64) bool { return theta >= 0 && theta <= 1 }

// Threshold converts a normalized distance threshold θ ∈ [0,1] into the
// largest unnormalized Footrule distance that still satisfies it:
// ⌊θ·k·(k+1)⌋. A pair (a,b) satisfies the normalized threshold iff
// Footrule(a,b) ≤ Threshold(θ,k).
//
// The floor is epsilon-guarded: when θ·k(k+1) is mathematically an
// exact integer, floating-point rounding can land a hair below it
// (θ = 7/110 · 110 evaluates to 6.999…), and a naive truncation would
// silently drop every boundary-distance pair from the result set.
func Threshold(theta float64, k int) int {
	v := theta * float64(MaxFootrule(k))
	f := math.Floor(v)
	if v-f > 1-thresholdEps {
		f++
	}
	return int(f)
}

// thresholdEps bounds the accumulated rounding error of θ·k(k+1) for
// the k the paper considers (products up to ~10⁶ keep the true error
// below 10⁻⁹ in double precision).
const thresholdEps = 1e-9

// FootruleWithin reports whether Footrule(a,b) ≤ maxDist, terminating
// early once the running sum exceeds the bound. On datasets where most
// pairs are distant this verifies candidates substantially faster than
// computing the full distance. Like Footrule it runs as a merged
// single pass when both rankings are indexed.
func FootruleWithin(a, b *Ranking, maxDist int) (int, bool) {
	if a.idxItems != nil && b.idxItems != nil {
		return footruleWithinMerged(a, b, maxDist)
	}
	k := len(a.Items)
	d := 0
	for rank, it := range a.Items {
		if rb, ok := b.Pos(it); ok {
			d += abs(rank - int(rb))
		} else {
			d += k - rank
		}
		if d > maxDist {
			return d, false
		}
	}
	for rank, it := range b.Items {
		if !a.Contains(it) {
			d += k - rank
			if d > maxDist {
				return d, false
			}
		}
	}
	return d, true
}

// footruleWithinMerged is footruleMerged with the early-termination
// bound checked after every contribution.
func footruleWithinMerged(a, b *Ranking, maxDist int) (int, bool) {
	k := len(a.Items)
	ai, ar := a.idxItems, a.idxRanks
	bi, br := b.idxItems, b.idxRanks
	d := 0
	i, j := 0, 0
	for i < len(ai) && j < len(bi) {
		switch {
		case ai[i] == bi[j]:
			d += abs(int(ar[i]) - int(br[j]))
			i++
			j++
		case ai[i] < bi[j]:
			d += k - int(ar[i])
			i++
		default:
			d += k - int(br[j])
			j++
		}
		if d > maxDist {
			return d, false
		}
	}
	for ; i < len(ai); i++ {
		d += k - int(ar[i])
		if d > maxDist {
			return d, false
		}
	}
	for ; j < len(bi); j++ {
		d += k - int(br[j])
		if d > maxDist {
			return d, false
		}
	}
	return d, true
}

// SharedRankDiffExceeds reports whether some item contained in both
// rankings sits at ranks differing by strictly more than bound — the
// core test of the position filter. When both rankings carry their
// flat index the scan is one merged pass; otherwise it probes b per
// item of a.
func SharedRankDiffExceeds(a, b *Ranking, bound int) bool {
	if a.idxItems != nil && b.idxItems != nil {
		ai, ar := a.idxItems, a.idxRanks
		bi, br := b.idxItems, b.idxRanks
		i, j := 0, 0
		for i < len(ai) && j < len(bi) {
			switch {
			case ai[i] == bi[j]:
				if abs(int(ar[i])-int(br[j])) > bound {
					return true
				}
				i++
				j++
			case ai[i] < bi[j]:
				i++
			default:
				j++
			}
		}
		return false
	}
	for rank, it := range a.Items {
		if rb, ok := b.Pos(it); ok && abs(rank-int(rb)) > bound {
			return true
		}
	}
	return false
}

// KendallTau computes Kendall's tau distance with the p = 0 "optimistic"
// penalty for top-k lists (Fagin et al.): the number of item pairs
// (i, j) that are ordered discordantly by the two rankings, counting
// pairs where only one ranking contains both items as discordant when
// their relative order is determined and violated. It is provided as a
// companion measure for applications; the join algorithms use Footrule.
func KendallTau(a, b *Ranking) int {
	a.Index()
	b.Index()
	k := len(a.Items)
	union := make([]Item, 0, 2*k)
	seen := make(map[Item]struct{}, 2*k)
	for _, it := range a.Items {
		union = append(union, it)
		seen[it] = struct{}{}
	}
	for _, it := range b.Items {
		if _, ok := seen[it]; !ok {
			union = append(union, it)
		}
	}
	d := 0
	for x := 0; x < len(union); x++ {
		for y := x + 1; y < len(union); y++ {
			i, j := union[x], union[y]
			ai, aHasI := a.Pos(i)
			aj, aHasJ := a.Pos(j)
			bi, bHasI := b.Pos(i)
			bj, bHasJ := b.Pos(j)
			switch {
			case aHasI && aHasJ && bHasI && bHasJ:
				if (ai < aj) != (bi < bj) {
					d++
				}
			case aHasI && aHasJ && bHasI && !bHasJ:
				// b ranks i, not j => b implies i ahead of j.
				if ai > aj {
					d++
				}
			case aHasI && aHasJ && !bHasI && bHasJ:
				if ai < aj {
					d++
				}
			case bHasI && bHasJ && aHasI && !aHasJ:
				if bi > bj {
					d++
				}
			case bHasI && bHasJ && !aHasI && aHasJ:
				if bi < bj {
					d++
				}
			case aHasI && !aHasJ && !bHasI && bHasJ:
				// i only in a, j only in b: discordant (case 4,
				// p-optimistic counts it as 1).
				d++
			case !aHasI && aHasJ && bHasI && !bHasJ:
				d++
			}
		}
	}
	return d
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
