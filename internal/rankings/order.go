package rankings

import "sort"

// This file implements the global frequency ordering of items that both
// the VJ adaptation (§4) and the CL pipeline's Ordering phase (§5) rely
// on: items are sorted by increasing frequency of appearance across the
// dataset, so that rare items land in ranking prefixes and posting
// lists stay short.
//
// The ordering phase applies the order once per job by renumbering:
// every item is replaced by its canonical position. Footrule distances
// are invariant under a bijection of items and no join result exposes
// an item, so the joins run on the renumbered copies unchanged — and
// on those, ascending item id *is* the canonical order. A prefix is
// then a slice of the ranking's own sorted position index (Prefix),
// read as plain data by every kernel.

// ItemCounts tallies how often each item appears across the dataset.
func ItemCounts(rs []*Ranking) map[Item]int64 {
	counts := make(map[Item]int64)
	for _, r := range rs {
		for _, it := range r.Items {
			counts[it]++
		}
	}
	return counts
}

// Order is a global canonical ordering of items: ascending frequency,
// ties broken by ascending item id.
type Order struct {
	rank map[Item]int32
}

// NewOrder builds the canonical ordering from item frequencies:
// ascending frequency, ties broken by ascending item id.
func NewOrder(counts map[Item]int64) *Order {
	items := make([]Item, 0, len(counts))
	for it := range counts {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		ci, cj := counts[items[i]], counts[items[j]]
		if ci != cj {
			return ci < cj
		}
		return items[i] < items[j]
	})
	rank := make(map[Item]int32, len(items))
	for i, it := range items {
		rank[it] = int32(i)
	}
	return &Order{rank: rank}
}

// Len returns the number of distinct items in the ordering.
func (o *Order) Len() int { return len(o.rank) }

// Renumber returns an indexed copy of r whose every item is replaced by
// its canonical position, so that the copy's Prefix is r's rarest items
// and MinCommon picks the canonically smallest shared one. The copy
// keeps r's id and rank order; r is unchanged. Its signature is
// computed from the new items, as DecodeWire and GobDecode recompute
// it, so a copy that crosses the wire compares with one that did not.
//
// The order must have counted every item of r: it is built from the
// very rankings it renumbers. Renumber panics otherwise.
func (o *Order) Renumber(r *Ranking) *Ranking {
	k := len(r.Items)
	// One backing array for Items, idxItems and idxRanks (Item is
	// int32): the copy costs this and the Ranking itself.
	buf := make([]Item, 3*k)
	items, idx, ranks := buf[:k:k], buf[k:2*k:2*k], buf[2*k:]
	for i, it := range r.Items {
		rank, ok := o.rank[it]
		if !ok {
			panic("rankings: Renumber: item not in the order")
		}
		items[i] = rank
	}
	c := &Ranking{ID: r.ID, Items: items}
	c.index(idx, ranks)
	return c
}

// MinCommon returns the smallest item a and b share within their
// p-prefixes (see Prefix), or CatchAllItem when those prefixes are
// disjoint — the one group a duplicate-free pipeline emits the pair
// in. Both rankings must be indexed; p ≥ k compares whole rankings.
// On renumbered rankings the smallest item is the canonically rarest.
func MinCommon(a, b *Ranking, p int) Item {
	pa, _ := a.Prefix(p)
	pb, _ := b.Prefix(p)
	for i, j := 0, 0; i < len(pa) && j < len(pb); {
		switch {
		case pa[i] < pb[j]:
			i++
		case pa[i] > pb[j]:
			j++
		default:
			return pa[i]
		}
	}
	return CatchAllItem
}
