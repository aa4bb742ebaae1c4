package rankings_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func TestOrderSortsByFrequencyThenID(t *testing.T) {
	ds := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{2, 3, 4}),
		rankings.MustNew(2, []rankings.Item{3, 4, 5}),
	}
	// freq: 1→1, 2→2, 3→3, 4→2, 5→1. Canonical: 1,5 (freq 1, id asc),
	// then 2,4 (freq 2), then 3.
	o := rankings.NewOrder(rankings.ItemCounts(ds))
	want := []rankings.Item{1, 5, 2, 4, 3}
	for i, it := range want {
		if got := o.Rank(it); got != int32(i) {
			t.Errorf("Rank(%d) = %d, want %d", it, got, i)
		}
	}
	if o.Len() != 5 {
		t.Errorf("Len = %d, want 5", o.Len())
	}
}

func TestCanonicalPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := testutil.RandDataset(rng, 30, 10, 60)
	o := rankings.NewOrder(rankings.ItemCounts(ds))
	for _, r := range ds {
		c := o.Canonical(r)
		if len(c) != r.K() {
			t.Fatalf("canonical length %d, want %d", len(c), r.K())
		}
		have := map[rankings.Item]int{}
		for _, it := range r.Items {
			have[it]++
		}
		for _, it := range c {
			have[it]--
		}
		for it, n := range have {
			if n != 0 {
				t.Fatalf("canonical of %v lost/gained item %d", r, it)
			}
		}
		// Canonical order must be non-decreasing in Order.Rank.
		for i := 1; i < len(c); i++ {
			if o.Rank(c[i-1]) > o.Rank(c[i]) {
				t.Fatalf("canonical not sorted by order: %v", c)
			}
		}
		// The original ranking must be untouched.
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrefixClamps(t *testing.T) {
	r := rankings.MustNew(0, []rankings.Item{4, 2, 9})
	o := rankings.NewOrder(rankings.ItemCounts([]*rankings.Ranking{r}))
	if got := len(o.Prefix(r, 2)); got != 2 {
		t.Errorf("prefix(2) length %d", got)
	}
	if got := len(o.Prefix(r, 10)); got != 3 {
		t.Errorf("prefix(10) length %d", got)
	}
}

func TestUnknownItemsSortLast(t *testing.T) {
	ds := []*rankings.Ranking{rankings.MustNew(0, []rankings.Item{1, 2})}
	o := rankings.NewOrder(rankings.ItemCounts(ds))
	if o.Rank(99) <= o.Rank(1) || o.Rank(99) <= o.Rank(2) {
		t.Error("unknown item does not sort after known items")
	}
	if o.Rank(98) >= o.Rank(99) {
		t.Error("unknown items not ordered by id")
	}
}

func TestIdentityOrder(t *testing.T) {
	o := rankings.IdentityOrder()
	r := rankings.MustNew(0, []rankings.Item{5, 1, 3})
	c := o.Canonical(r)
	if c[0] != 1 || c[1] != 3 || c[2] != 5 {
		t.Errorf("identity canonical = %v, want [1 3 5]", c)
	}
}

// TestMinCommonMatchesPrefixIntersection holds MinCommon to its
// definition: the first item of a's p-prefix (canonical order) that
// b's p-prefix also holds, CatchAllItem when there is none — for every
// p, including p ≥ k (whole rankings) and an order that has not seen
// the items (the identity order).
func TestMinCommonMatchesPrefixIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := testutil.RandDataset(rng, 40, 6, 14)
	for _, o := range []*rankings.Order{rankings.NewOrder(rankings.ItemCounts(ds)), rankings.IdentityOrder()} {
		for trial := 0; trial < 400; trial++ {
			a, b := ds[rng.Intn(len(ds))], ds[rng.Intn(len(ds))]
			for p := 1; p <= 8; p++ {
				want := rankings.CatchAllItem
				inB := map[rankings.Item]bool{}
				for _, it := range o.Prefix(b, p) {
					inB[it] = true
				}
				for _, it := range o.Prefix(a, p) {
					if inB[it] {
						want = it
						break
					}
				}
				if got := o.MinCommon(a, b, p); got != want {
					t.Fatalf("MinCommon(%v, %v, %d) = %d, want %d", a, b, p, got, want)
				}
			}
		}
	}
}
