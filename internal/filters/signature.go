package filters

import "rankjoin/internal/rankings"

// The item-signature prefilter: a constant-time admissible reject
// placed in front of every merged-pass Footrule kernel.
//
// Each ranking folds its item set into a 128-bit bitset (one hashed bit
// per item, rankings.Signature). For two rankings A and B of length k
// with signatures sigA/sigB and popcounts popA/popB, the item overlap
// o = |A ∩ B| is bounded above by
//
//	o ≤ SharedBits(sigA, sigB) + (k − popA)
//
// (and symmetrically with popB): the shared items occupy bits inside
// sigA ∧ sigB, and at most k − popA of A's items collide onto an
// already-set bit, so removing the k − o non-shared items from A can
// erase at most k − o distinct bits — SharedBits(sigA, sigB) ≥ popA −
// (k − o). An overlap upper bound turns into a Footrule lower bound
// through MinDistForOverlap: two rankings sharing at most ō items are
// at distance at least (k−ō)(k−ō+1). The bound never rejects a true
// result (o ≤ ō ⇒ MinDistForOverlap(ō,k) ≤ MinDistForOverlap(o,k) ≤
// Footrule), which the signature property/fuzz tests certify.

// OverlapUpperBound returns an upper bound on the item overlap of two
// equal-length rankings from their signatures alone: two ANDs, two
// popcounts, two corrections for in-signature hash collisions. The
// result is clamped to [0, k].
func OverlapUpperBound(sigA rankings.Sig, popA int, sigB rankings.Sig, popB int, k int) int {
	shared := sigA.SharedBits(sigB)
	return max(0, min(shared+k-popA, shared+k-popB, k))
}

// SignaturePrune reports whether the candidate pair can be discarded
// for threshold maxDist on signature evidence alone: the admissible
// Footrule lower bound m(m+1), m = k − overlap upper bound (the packing
// argument of MinDistForOverlap), already exceeds maxDist. A false
// result does NOT imply the pair is within maxDist.
func SignaturePrune(sigA rankings.Sig, popA int, sigB rankings.Sig, popB int, k, maxDist int) bool {
	return MinDistForOverlap(OverlapUpperBound(sigA, popA, sigB, popB, k), k) > maxDist
}
