package rankings_test

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"math/rand"
	"slices"
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
	want := map[rankings.Item]rankings.Item{1: 0, 5: 1, 2: 2, 4: 3, 3: 4}
	for _, r := range ds {
		c := o.Renumber(r)
		for i, it := range r.Items {
			if c.Items[i] != want[it] {
				t.Errorf("ranking %d: item %d renumbered %d, want %d", r.ID, it, c.Items[i], want[it])
			}
		}
	}
	if o.Len() != 5 {
		t.Errorf("Len = %d, want 5", o.Len())
	}
}

// TestCanonicalPreservesMultiset: Renumber is a bijection of items —
// every copy holds k distinct canonical positions, keeps the id and
// every Footrule distance, and leaves the original untouched.
func TestCanonicalPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := testutil.RandDataset(rng, 30, 10, 60)
	o := rankings.NewOrder(rankings.ItemCounts(ds))
	orig := make([][]rankings.Item, len(ds))
	for i, r := range ds {
		orig[i] = slices.Clone(r.Items)
	}
	rn := testutil.Renumber(ds)
	for i, c := range rn {
		if c.ID != ds[i].ID || c.K() != ds[i].K() {
			t.Fatalf("copy %v of %v changed id or length", c, ds[i])
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, it := range c.Items {
			if it < 0 || int(it) >= o.Len() {
				t.Fatalf("copy %v holds %d, outside [0, %d)", c, it, o.Len())
			}
		}
		if !slices.Equal(ds[i].Items, orig[i]) {
			t.Fatalf("Renumber changed its input %v", ds[i])
		}
		for j := range rn {
			if got, want := rankings.Footrule(c, rn[j]), rankings.Footrule(ds[i], ds[j]); got != want {
				t.Fatalf("Footrule(%v, %v) = %d renumbered, %d raw", ds[i], ds[j], got, want)
			}
		}
	}
}

// TestRenumberPrefixIsRarest pins which end of the order a prefix
// comes from: Renumber(r).Prefix(p), mapped back, is r's p rarest
// items, ties broken by id, each with its rank in r. Any global order
// keeps prefix filtering complete, so a prefix of the most frequent
// items would join correctly and only posting-list lengths would show.
func TestRenumberPrefixIsRarest(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := testutil.ZipfDataset(rng, 200, 8, 60, 1.2)
	counts := rankings.ItemCounts(ds)
	o := rankings.NewOrder(counts)
	for _, r := range ds {
		c := o.Renumber(r)
		back := map[rankings.Item]rankings.Item{}
		for i, it := range c.Items {
			back[it] = r.Items[i]
		}
		rarest := slices.Clone(r.Items)
		slices.SortFunc(rarest, func(a, b rankings.Item) int {
			return cmp.Or(cmp.Compare(counts[a], counts[b]), cmp.Compare(a, b))
		})
		for p := 0; p <= r.K()+1; p++ {
			items, ranks := c.Prefix(p)
			if want := min(p, r.K()); len(items) != want || len(ranks) != want {
				t.Fatalf("%v: Prefix(%d) has %d items, %d ranks, want %d", r, p, len(items), len(ranks), want)
			}
			for i, it := range items {
				if back[it] != rarest[i] {
					t.Fatalf("%v: Prefix(%d)[%d] is item %d, want the rarest %v", r, p, i, back[it], rarest[:p])
				}
				if rank, _ := r.Pos(back[it]); ranks[i] != rank {
					t.Fatalf("%v: item %d at rank %d, Prefix says %d", r, back[it], rank, ranks[i])
				}
			}
		}
	}
}

func TestPrefixClamps(t *testing.T) {
	r := rankings.MustNew(0, []rankings.Item{4, 2, 9})
	c := rankings.NewOrder(rankings.ItemCounts([]*rankings.Ranking{r})).Renumber(r)
	if items, ranks := c.Prefix(2); len(items) != 2 || len(ranks) != 2 {
		t.Errorf("prefix(2) lengths %d, %d", len(items), len(ranks))
	}
	if items, ranks := c.Prefix(10); len(items) != 3 || len(ranks) != 3 {
		t.Errorf("prefix(10) lengths %d, %d", len(items), len(ranks))
	}
	// The prefix aliases the index: appending must copy, not overwrite.
	items, _ := c.Prefix(1)
	_ = append(items, rankings.CatchAllItem)
	if again, _ := c.Prefix(2); again[1] == rankings.CatchAllItem {
		t.Error("appending to a prefix overwrote the index")
	}
}

// TestRawPrefixIsSmallestIDs: a ranking that was not renumbered has its
// smallest ids for a prefix — the identity order the no-reordering
// ablation (vj.Options.SkipReorder on raw rankings) joins by.
func TestRawPrefixIsSmallestIDs(t *testing.T) {
	r := rankings.MustNew(0, []rankings.Item{5, 1, 3})
	r.Index()
	items, ranks := r.Prefix(3)
	if !slices.Equal(items, []rankings.Item{1, 3, 5}) || !slices.Equal(ranks, []int32{1, 2, 0}) {
		t.Errorf("identity prefix = %v at ranks %v, want [1 3 5] at [1 2 0]", items, ranks)
	}
}

func TestRenumberPanicsOnUnknownItem(t *testing.T) {
	o := rankings.NewOrder(map[rankings.Item]int64{1: 1, 2: 1})
	defer func() {
		if recover() == nil {
			t.Error("Renumber accepted an item the order never counted")
		}
	}()
	o.Renumber(rankings.MustNew(0, []rankings.Item{1, 3}))
}

// TestMinCommonMatchesPrefixIntersection holds MinCommon to its
// definition: the first item of a's p-prefix that b's p-prefix also
// holds, CatchAllItem when there is none — for every p, including
// p ≥ k (whole rankings), on renumbered and on raw rankings.
func TestMinCommonMatchesPrefixIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := testutil.RandDataset(rng, 40, 6, 14)
	for _, set := range [][]*rankings.Ranking{testutil.Renumber(ds), ds} {
		for trial := 0; trial < 400; trial++ {
			a, b := set[rng.Intn(len(set))], set[rng.Intn(len(set))]
			for p := 1; p <= 8; p++ {
				want := rankings.CatchAllItem
				pb, _ := b.Prefix(p)
				pa, _ := a.Prefix(p)
				for _, it := range pa {
					if slices.Contains(pb, it) {
						want = it
						break
					}
				}
				if got := rankings.MinCommon(a, b, p); got != want {
					t.Fatalf("MinCommon(%v, %v, %d) = %d, want %d", a, b, p, got, want)
				}
			}
		}
	}
}

// TestRenumberedSurvivesWire: a renumbered copy that crosses the wire
// (AppendWire/DecodeWire, and gob as the flow engine's exchange frames
// use it) comes back with the same signature, prefix and MinCommon.
// Decoding recomputes the signature from the shipped items, so a copy
// carrying its original item space's signature would compare
// signatures across two item spaces and the overlap bound would turn
// unsound.
func TestRenumberedSurvivesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := testutil.Renumber(testutil.ZipfDataset(rng, 60, 10, 80, 1.2))
	for i, c := range ds {
		var wire rankings.Ranking
		if _, err := wire.DecodeWire(c.AppendWire(nil)); err != nil {
			t.Fatal(err)
		}
		wire.Index()
		var blob bytes.Buffer
		if err := gob.NewEncoder(&blob).Encode(c); err != nil {
			t.Fatal(err)
		}
		var viaGob rankings.Ranking
		if err := gob.NewDecoder(&blob).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		other := ds[(i+1)%len(ds)]
		for _, got := range []*rankings.Ranking{&wire, &viaGob} {
			sig, pop := got.Signature()
			if wantSig, wantPop := c.Signature(); sig != wantSig || pop != wantPop {
				t.Fatalf("%v: signature %v/%d after the trip, %v/%d before", c, sig, pop, wantSig, wantPop)
			}
			for p := 1; p <= c.K(); p++ {
				items, ranks := got.Prefix(p)
				wantItems, wantRanks := c.Prefix(p)
				if !slices.Equal(items, wantItems) || !slices.Equal(ranks, wantRanks) {
					t.Fatalf("%v: Prefix(%d) = %v/%v after the trip, %v/%v before", c, p, items, ranks, wantItems, wantRanks)
				}
				if m, want := rankings.MinCommon(got, other, p), rankings.MinCommon(c, other, p); m != want {
					t.Fatalf("%v: MinCommon with %v at %d = %d after the trip, %d before", c, other, p, m, want)
				}
			}
		}
	}
}

// TestPrefixPathAllocs gates the allocations of the prefix path.
// Before renumbering, Order.MinCommon made 0 and a ranking rebuilt
// from canonical positions cost 4 (items, Ranking, and Index's two
// arrays); Renumber shares one backing array among all three slices.
func TestPrefixPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	raw := testutil.RandDataset(rng, 20, 10, 40)
	o := rankings.NewOrder(rankings.ItemCounts(raw))
	a, b := o.Renumber(raw[0]), o.Renumber(raw[1])
	var sink *rankings.Ranking
	if n := testing.AllocsPerRun(100, func() { sink = o.Renumber(raw[2]) }); n > 2 {
		t.Errorf("Renumber: %v allocs/op, want ≤ 2", n)
	}
	_ = sink
	if n := testing.AllocsPerRun(100, func() { rankings.MinCommon(a, b, 4) }); n != 0 {
		t.Errorf("MinCommon: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Prefix(4) }); n != 0 {
		t.Errorf("Prefix: %v allocs/op, want 0", n)
	}
}
