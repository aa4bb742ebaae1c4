package filters_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rankjoin/internal/filters"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func TestMinOverlapBoundsAndMonotonicity(t *testing.T) {
	for _, k := range []int{2, 5, 10, 25} {
		prev := k + 1
		for f := 0; f <= rankings.MaxFootrule(k); f++ {
			w := filters.MinOverlap(f, k)
			if w < 0 || w > k {
				t.Fatalf("k=%d F=%d: ω=%d out of range", k, f, w)
			}
			if w > prev {
				t.Fatalf("k=%d F=%d: ω increased from %d to %d", k, f, prev, w)
			}
			prev = w
		}
		if w := filters.MinOverlap(0, k); w != k {
			t.Errorf("k=%d: ω(0)=%d, want k (identical rankings overlap fully)", k, w)
		}
		if w := filters.MinOverlap(rankings.MaxFootrule(k), k); w != 0 {
			t.Errorf("k=%d: ω(max)=%d, want 0", k, w)
		}
	}
}

// TestMinOverlapConsistentWithMinDist certifies the pair of inverse
// formulas: rankings sharing exactly o items are at distance at least
// MinDistForOverlap(o,k), and MinOverlap is the smallest o whose
// minimal distance still fits under the threshold.
func TestMinOverlapConsistentWithMinDist(t *testing.T) {
	for _, k := range []int{2, 5, 10, 25} {
		for f := 0; f <= rankings.MaxFootrule(k); f++ {
			w := filters.MinOverlap(f, k)
			if w > 0 && filters.MinDistForOverlap(w-1, k) <= f {
				t.Fatalf("k=%d F=%d: overlap %d already feasible, ω=%d not minimal",
					k, f, w-1, w)
			}
			if filters.MinDistForOverlap(w, k) > f && f < rankings.MaxFootrule(k) && w < k {
				// ω itself must be feasible (its minimal distance ≤ F)
				// except in degenerate corners.
				t.Fatalf("k=%d F=%d: ω=%d infeasible (min dist %d)",
					k, f, w, filters.MinDistForOverlap(w, k))
			}
		}
	}
}

// TestMinDistForOverlapAchievable constructs the witness from the
// lemma's proof: shared items on top in identical order, non-shared
// items packed at the bottom — the distance is exactly m(m+1).
func TestMinDistForOverlapAchievable(t *testing.T) {
	k := 10
	for o := 0; o <= k; o++ {
		a := make([]rankings.Item, 0, k)
		b := make([]rankings.Item, 0, k)
		for i := 0; i < o; i++ { // shared head
			a = append(a, rankings.Item(i))
			b = append(b, rankings.Item(i))
		}
		for i := o; i < k; i++ { // disjoint tails
			a = append(a, rankings.Item(100+i))
			b = append(b, rankings.Item(200+i))
		}
		ra, rb := rankings.MustNew(0, a), rankings.MustNew(1, b)
		if got, want := rankings.Footrule(ra, rb), filters.MinDistForOverlap(o, k); got != want {
			t.Errorf("o=%d: witness distance %d, want %d", o, got, want)
		}
	}
}

// TestOverlapNeverBelowBound: no pair within distance F overlaps in
// fewer than MinOverlap(F,k) items.
func TestOverlapNeverBelowBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(12)
		dom := k + rng.Intn(2*k)
		a := testutil.RandRanking(rng, 0, k, dom)
		b := testutil.RandRanking(rng, 1, k, dom)
		d := rankings.Footrule(a, b)
		return rankings.Overlap(a, b) >= filters.MinOverlap(d, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixOverlapComplete: any pair within the threshold shares at
// least one item among their first p = PrefixOverlap items — for ANY
// canonical order (we renumber by a random one).
func TestPrefixOverlapComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		dom := k + rng.Intn(k)
		a := testutil.RandRanking(rng, 0, k, dom)
		b := testutil.RandRanking(rng, 1, k, dom)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		if rankings.Footrule(a, b) > maxDist {
			return true // only completeness is claimed
		}
		// Random global order: frequency order is just one instance.
		counts := map[rankings.Item]int64{}
		for i := 0; i < dom; i++ {
			counts[rankings.Item(i)] = rng.Int63n(50)
		}
		o := rankings.NewOrder(counts)
		p := filters.PrefixOverlap(maxDist, k)
		pa, _ := o.Renumber(a).Prefix(p)
		pb, _ := o.Renumber(b).Prefix(p)
		for _, x := range pa {
			for _, y := range pb {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefixOrderedComplete: Lemma 4.1 — any pair within the threshold
// shares an item within the first p_o original rank positions.
func TestPrefixOrderedComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(10)
		dom := k + rng.Intn(k)
		a := testutil.RandRanking(rng, 0, k, dom)
		b := testutil.RandRanking(rng, 1, k, dom)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		if rankings.Footrule(a, b) > maxDist {
			return true
		}
		p := filters.PrefixOrdered(maxDist, k)
		for _, x := range a.Items[:p] {
			for _, y := range b.Items[:p] {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma41Witness reproduces the lemma's tightness argument: two
// rankings over the same domain whose first p items are swapped into
// the following p positions are at distance exactly L(p,k) = 2p².
func TestLemma41Witness(t *testing.T) {
	k := 12
	for p := 1; 2*p <= k; p++ {
		items := make([]rankings.Item, k)
		for i := range items {
			items[i] = rankings.Item(i)
		}
		swapped := make([]rankings.Item, k)
		copy(swapped, items)
		for i := 0; i < p; i++ {
			swapped[i], swapped[p+i] = swapped[p+i], swapped[i]
		}
		a := rankings.MustNew(0, items)
		b := rankings.MustNew(1, swapped)
		if got, want := rankings.Footrule(a, b), filters.LowestDistDisjointPrefix(p); got != want {
			t.Errorf("p=%d: witness distance %d, want %d", p, got, want)
		}
		// And the ordered prefix for thresholds just below 2p² must be
		// at most p (it would miss this pair at exactly 2p² only if
		// the +1 slack were absent).
		if po := filters.PrefixOrdered(2*p*p, k); po < p+1 {
			t.Errorf("p=%d: ordered prefix %d too small to catch witness", p, po)
		}
	}
}

func TestPrefixOrderedFallbackBeyondValidity(t *testing.T) {
	k := 10
	if got := filters.PrefixOrdered(k*k/2+1, k); got != k {
		t.Errorf("beyond validity: prefix %d, want full k=%d", got, k)
	}
}

// TestPositionFilterSound: the position filter never prunes a pair
// within the threshold.
func TestPositionFilterSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(12)
		dom := k + rng.Intn(2*k)
		a := testutil.RandRanking(rng, 0, k, dom)
		b := testutil.RandRanking(rng, 1, k, dom)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		if filters.PositionPrune(a, b, maxDist) {
			return rankings.Footrule(a, b) > maxDist
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

func TestPositionPruneItemAgreesWithPairForm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		k := 2 + rng.Intn(12)
		a := testutil.RandRanking(rng, 0, k, 2*k)
		b := testutil.RandRanking(rng, 1, k, 2*k)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		anyItem := false
		for rank, it := range a.Items {
			if rb, ok := b.Pos(it); ok {
				if filters.PositionPruneItem(int32(rank), rb, maxDist) {
					anyItem = true
				}
			}
		}
		if anyItem != filters.PositionPrune(a, b, maxDist) {
			t.Fatalf("item and pair forms disagree (k=%d maxDist=%d)", k, maxDist)
		}
	}
}

func TestTriangleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 800; trial++ {
		k := 2 + rng.Intn(10)
		dom := k + rng.Intn(2*k)
		x := testutil.RandRanking(rng, 0, k, dom)
		y := testutil.RandRanking(rng, 1, k, dom)
		c := testutil.RandRanking(rng, 2, k, dom)
		dxy := rankings.Footrule(x, y)
		dxc := rankings.Footrule(x, c)
		dyc := rankings.Footrule(y, c)
		if lo := filters.TriangleLower(dxc, dyc); lo > dxy {
			t.Fatalf("lower bound %d exceeds true distance %d", lo, dxy)
		}
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		if filters.TrianglePrune(dxc, dyc, maxDist) && dxy <= maxDist {
			t.Fatal("triangle prune dropped a true result")
		}
		if filters.TriangleAccept(dxc, dyc, maxDist) && dxy > maxDist {
			t.Fatal("triangle accept admitted a false result")
		}
	}
}

func TestTwoPivotPruneSound(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 800; trial++ {
		k := 2 + rng.Intn(10)
		dom := k + rng.Intn(2*k)
		ti := testutil.RandRanking(rng, 0, k, dom)
		tj := testutil.RandRanking(rng, 1, k, dom)
		ci := testutil.RandRanking(rng, 2, k, dom)
		cj := testutil.RandRanking(rng, 3, k, dom)
		dcc := rankings.Footrule(ci, cj)
		dic := rankings.Footrule(ti, ci)
		djc := rankings.Footrule(tj, cj)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		if filters.TwoPivotPrune(dcc, dic, djc, maxDist) &&
			rankings.Footrule(ti, tj) <= maxDist {
			t.Fatal("two-pivot prune dropped a true result")
		}
	}
}
