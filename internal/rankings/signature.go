package rankings

import "math/bits"

// Item signatures: every ranking folds its item set into a 128-bit
// bitset by hashing each item onto one of 128 bit positions. Signatures
// support a constant-time *upper bound* on the item overlap of two
// rankings (two ANDs + popcounts, see filters.OverlapUpperBound), which
// converts into an admissible Footrule lower bound that rejects most
// distant candidate pairs before any merged-pass kernel runs.
//
// 128 bits is a deliberate width: with top-k lists of k ≤ 25 items, two
// disjoint item sets share ≈ k²/128 bits by collision alone (≈ 0.8 at
// k = 10, versus 1.6 in a single 64-bit word). The collision tail is
// what survives the prefilter, so halving it roughly halves the kernel
// invocations of a bound-driven kNN sweep.
//
// The hash is a fixed multiplicative scramble: deterministic across
// processes, so signatures can be compared between rankings built
// anywhere (shards, batch-join partitions, serialized snapshots).

// Sig is a 128-bit item-signature bitset, stored as two 64-bit words.
// The zero Sig is the signature of the empty item set.
type Sig struct {
	Lo, Hi uint64
}

// SharedBits counts the bits set in both signatures (the popcount of
// their intersection) — the core of the overlap upper bound.
func (s Sig) SharedBits(t Sig) int {
	return bits.OnesCount64(s.Lo&t.Lo) + bits.OnesCount64(s.Hi&t.Hi)
}

// OnesCount counts the bits set in the signature.
func (s Sig) OnesCount() int {
	return bits.OnesCount64(s.Lo) + bits.OnesCount64(s.Hi)
}

// sigBit maps an item onto its signature bit position in [0, 128).
// Knuth's multiplicative hash; the top seven bits of the product are
// well mixed even for the small sequential item ids test datasets use.
func sigBit(it Item) uint {
	return uint(uint32(it)*0x9E3779B1) >> 25
}

// computeSignature folds a raw item slice into (bitset, popcount).
func computeSignature(items []Item) (Sig, int) {
	var sig Sig
	for _, it := range items {
		b := sigBit(it)
		if b < 64 {
			sig.Lo |= 1 << b
		} else {
			sig.Hi |= 1 << (b - 64)
		}
	}
	return sig, sig.OnesCount()
}

// Signature returns the ranking's 128-bit item signature and its
// popcount. Indexed rankings (see Index) answer from the cached value;
// unindexed rankings compute it on the fly without caching, keeping
// the accessor safe for concurrent use on shared rankings.
func (r *Ranking) Signature() (sig Sig, popcount int) {
	if r.idxItems != nil {
		return r.sig, int(r.sigPop)
	}
	return r.signatureUnindexed()
}

// signatureUnindexed is Signature's slow path, kept out of line so the
// cached read above stays inside the inlining budget: filters.Resolve
// reads two signatures per candidate pair.
//
//go:noinline
func (r *Ranking) signatureUnindexed() (Sig, int) { return computeSignature(r.Items) }
