// Package filters implements the search-space pruning mathematics of
// the paper: the two prefix-size bounds for top-k rankings under
// Spearman's Footrule (§4, Lemma 4.1), the position filter from the
// authors' prior work, and the triangle-inequality candidate filters
// used by the expansion phase (§5.3).
//
// All bounds are expressed over the unnormalized Footrule distance
// F ∈ [0, k(k+1)]; use rankings.Threshold to convert a normalized
// threshold θ first.
package filters

import "math"

// MinOverlap returns the smallest number of shared items ω two top-k
// rankings can have while still satisfying Footrule(τi, τj) ≤ maxDist:
//
//	ω = ⌈0.5·(1 + 2k − √(1 + 4F))⌉
//
// Rankings overlapping in fewer than ω items are guaranteed to be
// farther apart than maxDist. The result is clamped to [0, k].
func MinOverlap(maxDist, k int) int {
	w := int(math.Ceil(0.5 * (1 + 2*float64(k) - math.Sqrt(1+4*float64(maxDist)))))
	if w < 0 {
		return 0
	}
	if w > k {
		return k
	}
	return w
}

// MinDistForOverlap returns the smallest possible Footrule distance
// between two top-k rankings that share exactly overlap items:
// m(m+1) with m = k − overlap (the non-shared items packed at the
// bottom of both rankings). It is the inverse view of MinOverlap and is
// used by property tests to certify the bound tight.
func MinDistForOverlap(overlap, k int) int {
	m := k - overlap
	return m * (m + 1)
}

// PrefixOverlap returns the prefix size p = k − ω + 1 induced by the
// overlap bound: any two rankings with Footrule ≤ maxDist must share at
// least one item among the first p items of their canonical
// (frequency-ordered) forms. This is the prefix the VJ adaptation and
// the CL pipeline index, because it permits free choice of which items
// form the prefix (and hence frequency reordering). Clamped to [1, k].
func PrefixOverlap(maxDist, k int) int {
	p := k - MinOverlap(maxDist, k) + 1
	if p < 1 {
		p = 1
	}
	if p > k {
		p = k
	}
	return p
}

// PrefixOrdered returns the ordered prefix size of Lemma 4.1:
//
//	p_o = ⌊√F / √2⌋ + 1
//
// valid while F ≤ k²/2 — any two rankings with Footrule ≤ maxDist must
// share an item within their first p_o *rank positions* (original rank
// order, no reordering allowed). Beyond F = k²/2 the paper leaves the
// bound open and we fall back to the full ranking (p_o = k).
func PrefixOrdered(maxDist, k int) int {
	if 2*maxDist > k*k {
		return k
	}
	p := int(math.Sqrt(float64(maxDist)/2)) + 1
	if p > k {
		p = k
	}
	return p
}

// LowestDistDisjointPrefix returns L(p, k) = 2p², the smallest Footrule
// distance two top-k rankings can have when none of their first p
// ranked items coincide (proof of Lemma 4.1). Exposed for tests.
func LowestDistDisjointPrefix(p int) int { return 2 * p * p }
