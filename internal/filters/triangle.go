package filters

// Triangle-inequality bounds used by the expansion phase (§5.3) and the
// metric-space utilities. All distances are unnormalized Footrule
// values; the bounds hold for any metric.

// TriangleLower returns the tightest lower bound on d(x, y) obtainable
// from a shared pivot c: |d(x, c) − d(y, c)|.
func TriangleLower(dxc, dyc int) int {
	l := dxc - dyc
	if l < 0 {
		l = -l
	}
	return l
}

// TrianglePrune reports whether a candidate pair (x, y) with pivot
// distances dxc and dyc can be discarded for threshold maxDist:
// |d(x,c) − d(y,c)| > F implies d(x,y) > F.
func TrianglePrune(dxc, dyc, maxDist int) bool {
	return TriangleLower(dxc, dyc) > maxDist
}

// TriangleAccept reports whether a candidate pair (x, y) with pivot
// distances dxc and dyc is certainly a result for threshold maxDist
// without verification: d(x,c) + d(c,y) ≤ F implies d(x,y) ≤ F. The
// paper's expansion only applies the prune; the accept backs
// core.Options.UnverifiedPartials.
func TriangleAccept(dxc, dcy, maxDist int) bool {
	return dxc+dcy <= maxDist
}

// TwoPivotPrune lower-bounds d(τi, τj) when τi is known at distance
// dic from centroid ci, τj at distance djc from centroid cj, and the
// centroid distance d(ci, cj) = dcc is known:
//
//	d(τi, τj) ≥ d(ci, cj) − d(τi, ci) − d(τj, cj).
//
// It reports whether that bound already exceeds maxDist.
func TwoPivotPrune(dcc, dic, djc, maxDist int) bool {
	return dcc-dic-djc > maxDist
}
