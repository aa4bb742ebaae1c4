package filters

import (
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Resolve decides one candidate pair against maxDist with the cascade
// every join kernel shares, cheapest admissible rejection first: the
// signature bound (equal-length rankings only — the overlap bound
// assumes one k), the merged-pass position filter, then early-exit
// Footrule verification. ok ⇔ Footrule(a, b) ≤ maxDist, and dist is
// exact when ok. Exactly one of d.PrunedSignature, d.PrunedPosition
// and d.Verified is incremented, plus d.Emitted when ok; counting
// d.Generated, and any filter that needs more than the two rankings
// (prefix rank check, triangle bounds), stays with the caller.
func Resolve(a, b *rankings.Ranking, maxDist int, d *obs.FilterDelta) (dist int, ok bool) {
	if k := a.K(); b.K() == k {
		asig, apop := a.Signature()
		bsig, bpop := b.Signature()
		if SignaturePrune(asig, apop, bsig, bpop, k, maxDist) {
			d.PrunedSignature++
			return 0, false
		}
	}
	if PositionPrune(a, b, maxDist) {
		d.PrunedPosition++
		return 0, false
	}
	d.Verified++
	if dist, ok = rankings.FootruleWithin(a, b, maxDist); ok {
		d.Emitted++
	}
	return dist, ok
}
