package filters_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/filters"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// resolveOnce runs Resolve on a fresh ledger and checks what holds for
// every input: exactly one fate counter moves by one, nothing else but
// Emitted moves, Emitted ⇔ ok, and dist is the exact distance when ok.
func resolveOnce(t *testing.T, a, b *rankings.Ranking, maxDist int) (ok bool, d obs.FilterDelta) {
	t.Helper()
	dist, ok := filters.Resolve(a, b, maxDist, &d)
	if fates := d.PrunedSignature + d.PrunedPosition + d.Verified; fates != 1 {
		t.Fatalf("%v vs %v at %d: %d fates tallied: %v", a, b, maxDist, fates, d)
	}
	want := obs.FilterDelta{PrunedSignature: d.PrunedSignature, PrunedPosition: d.PrunedPosition, Verified: d.Verified}
	if ok {
		want.Emitted = 1
		if d.Verified != 1 {
			t.Fatalf("%v vs %v at %d: accepted without verification: %v", a, b, maxDist, d)
		}
		if f := rankings.Footrule(a, b); dist != f {
			t.Fatalf("%v vs %v at %d: dist %d, Footrule %d", a, b, maxDist, dist, f)
		}
	}
	if d != want {
		t.Fatalf("%v vs %v at %d ok=%v: ledger %v, want %v", a, b, maxDist, ok, d, want)
	}
	return ok, d
}

// TestResolveDecidesExactly is the cascade's contract on equal-length
// pairs, indexed or not, at every threshold: ok ⇔ Footrule ≤ maxDist.
// The pairs come from clustered data so both answers occur at most
// thresholds.
func TestResolveDecidesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var fates obs.FilterDelta
	for _, k := range []int{1, 2, 5, 10} {
		rs := testutil.ClusteredDataset(rng, 6, 3, k, 3*k)
		for trial := 0; trial < 60; trial++ {
			a, b := rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))]
			// Clone drops the position index and the cached signature.
			for _, pair := range [][2]*rankings.Ranking{{a, b}, {a.Clone(), b}, {a.Clone(), b.Clone()}} {
				f := rankings.Footrule(pair[0], pair[1])
				for maxDist := 0; maxDist <= rankings.MaxFootrule(k); maxDist++ {
					ok, d := resolveOnce(t, pair[0], pair[1], maxDist)
					if ok != (f <= maxDist) {
						t.Fatalf("k=%d %v vs %v: Footrule %d, maxDist %d, ok=%v (%v)", k, pair[0], pair[1], f, maxDist, ok, d)
					}
					fates.PrunedSignature += d.PrunedSignature
					fates.PrunedPosition += d.PrunedPosition
					fates.Verified += d.Verified
					fates.Emitted += d.Emitted
				}
			}
		}
	}
	if fates.PrunedSignature == 0 || fates.PrunedPosition == 0 || fates.Emitted == 0 || fates.Verified == fates.Emitted {
		t.Errorf("the sweep did not reach every outcome: %v", fates)
	}
}

// TestResolveMixedLengths: every join refuses mixed lengths at its
// boundary (rankings.UniformK), so Resolve only has to stay sound
// there. The signature bound assumes one k and must not be consulted;
// the position filter's zero-sum argument does not hold either, so only
// ok ⇒ within is asserted, not the converse.
func TestResolveMixedLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 200; trial++ {
		ka, kb := 1+rng.Intn(8), 1+rng.Intn(8)
		if ka == kb {
			kb++
		}
		a := testutil.RandRanking(rng, 1, ka, 12)
		b := testutil.RandRanking(rng, 2, kb, 12)
		if trial%2 == 1 {
			a, b = a.Clone(), b.Clone()
		}
		f := rankings.Footrule(a, b)
		for maxDist := 0; maxDist <= rankings.MaxFootrule(max(ka, kb)); maxDist++ {
			ok, d := resolveOnce(t, a, b, maxDist)
			if d.PrunedSignature != 0 {
				t.Fatalf("signature bound applied across lengths %d and %d", ka, kb)
			}
			if ok && f > maxDist {
				t.Fatalf("%v vs %v: accepted at %d, Footrule %d", a, b, maxDist, f)
			}
		}
	}
}

func TestResolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// Near-duplicates to accept, strangers over a wide domain for the
	// signature bound, and over a narrow one for the position filter.
	rs := testutil.ClusteredDataset(rng, 4, 3, 10, 40)
	rs = append(rs, testutil.RandDataset(rng, 8, 10, 13)...)
	var d obs.FilterDelta
	if avg := testing.AllocsPerRun(100, func() {
		for _, a := range rs {
			for _, b := range rs {
				filters.Resolve(a, b, 12, &d)
			}
		}
	}); avg != 0 {
		t.Errorf("Resolve allocates %.1f times per sweep of indexed pairs; find it with: go build -gcflags=-m ./internal/filters 2>&1 | grep -E 'escapes|moved to heap'", avg)
	}
	if d.PrunedSignature == 0 || d.PrunedPosition == 0 || d.Emitted == 0 {
		t.Errorf("the sweep did not reach every step: %v", d)
	}
}
