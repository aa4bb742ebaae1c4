package rankings_test

import (
	"math"
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// TestThresholdExactIntegerBoundaries: whenever θ·k(k+1) is
// mathematically an exact integer d (θ = d / k(k+1)), Threshold must
// return d. The naive truncation int(θ·k(k+1)) under-counted 73 such
// boundaries across k ∈ {4,5,10,19,25} (e.g. θ = 7/110 → 6), silently
// dropping every pair at exactly the threshold distance.
func TestThresholdExactIntegerBoundaries(t *testing.T) {
	for _, k := range []int{1, 2, 4, 5, 10, 19, 25, 50} {
		m := rankings.MaxFootrule(k)
		for d := 0; d <= m; d++ {
			theta := float64(d) / float64(m)
			if got := rankings.Threshold(theta, k); got != d {
				t.Fatalf("Threshold(%d/%d, %d) = %d, want %d", d, m, k, got, d)
			}
		}
	}
}

// TestThresholdBetweenBoundaries: θ strictly between two integer
// boundaries must floor to the lower one — the epsilon guard must not
// overshoot.
func TestThresholdBetweenBoundaries(t *testing.T) {
	for _, k := range []int{2, 5, 10, 25} {
		m := rankings.MaxFootrule(k)
		for d := 1; d <= m; d++ {
			theta := (float64(d) - 0.5) / float64(m)
			if got := rankings.Threshold(theta, k); got != d-1 {
				t.Fatalf("Threshold((%d-0.5)/%d, %d) = %d, want %d", d, m, k, got, d-1)
			}
		}
	}
}

// TestThresholdMonotone: Threshold is non-decreasing in θ and pinned at
// the extremes.
func TestThresholdMonotone(t *testing.T) {
	for _, k := range []int{5, 10, 25} {
		m := rankings.MaxFootrule(k)
		if got := rankings.Threshold(0, k); got != 0 {
			t.Errorf("Threshold(0, %d) = %d", k, got)
		}
		if got := rankings.Threshold(1, k); got != m {
			t.Errorf("Threshold(1, %d) = %d, want %d", k, got, m)
		}
		prev := 0
		for i := 0; i <= 1000; i++ {
			cur := rankings.Threshold(float64(i)/1000, k)
			if cur < prev {
				t.Fatalf("k=%d: Threshold decreased at θ=%v: %d < %d", k, float64(i)/1000, cur, prev)
			}
			prev = cur
		}
	}
}

// TestSharedRankDiffExceedsMatchesProbe: the merged-pass position
// filter agrees with the definition (max |τ(i)−σ(i)| over shared
// items), indexed or not.
func TestSharedRankDiffExceedsMatchesProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(15)
		dom := k + rng.Intn(3*k)
		a := testutil.RandRanking(rng, 0, k, dom)
		b := testutil.RandRanking(rng, 1, k, dom)
		maxDiff := -1
		for ra, it := range a.Items {
			if rb, ok := b.Pos(it); ok {
				d := ra - int(rb)
				if d < 0 {
					d = -d
				}
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
		for bound := 0; bound <= k; bound++ {
			want := maxDiff > bound
			if got := rankings.SharedRankDiffExceeds(a, b, bound); got != want {
				t.Fatalf("indexed: bound=%d got=%v want=%v (maxDiff=%d a=%v b=%v)",
					bound, got, want, maxDiff, a, b)
			}
			// Unindexed fallback path.
			ua := rankings.MustNew(10, a.Items)
			ub := rankings.MustNew(11, b.Items)
			if got := rankings.SharedRankDiffExceeds(ua, ub, bound); got != want {
				t.Fatalf("unindexed: bound=%d got=%v want=%v", bound, got, want)
			}
		}
	}
}

// TestThetaInRange: the closed interval [0, 1], and nothing NaN can
// slip through (it compares false against both bounds).
func TestThetaInRange(t *testing.T) {
	for _, theta := range []float64{0, math.SmallestNonzeroFloat64, 0.5, 1} {
		if !rankings.ThetaInRange(theta) {
			t.Errorf("ThetaInRange(%v) = false", theta)
		}
	}
	for _, theta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0001, 1.0001} {
		if rankings.ThetaInRange(theta) {
			t.Errorf("ThetaInRange(%v) = true", theta)
		}
	}
}
