package rankings

import "sort"

// This file implements the global frequency ordering of items that both
// the VJ adaptation (§4) and the CL pipeline's Ordering phase (§5) rely
// on: items are sorted by increasing frequency of appearance across the
// dataset, so that rare items land in ranking prefixes and posting
// lists stay short. The rankings themselves keep their original rank
// order — the canonical order only decides which items form the prefix.

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

// Order is a global canonical ordering of items. Smaller order value
// means rarer item (ties broken by item id), i.e. earlier in the
// canonical sort used for prefix filtering.
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

// Rank returns the canonical position of item. Items unknown to the
// ordering (possible when the ordering was built on a different
// dataset) sort last, by item id.
func (o *Order) Rank(item Item) int32 {
	if r, ok := o.rank[item]; ok {
		return r
	}
	return int32(len(o.rank)) + item
}

// Canonical returns r's items sorted by the canonical order: rarest
// item first. The returned slice is freshly allocated; r is unchanged.
func (o *Order) Canonical(r *Ranking) []Item {
	items := make([]Item, len(r.Items))
	copy(items, r.Items)
	sort.Slice(items, func(i, j int) bool {
		return o.Rank(items[i]) < o.Rank(items[j])
	})
	return items
}

// Prefix returns the first p items of r in canonical order (all items
// when p ≥ k). These are the items indexed by prefix filtering.
func (o *Order) Prefix(r *Ranking, p int) []Item {
	c := o.Canonical(r)
	if p >= len(c) {
		return c
	}
	return c[:p]
}

// MinCommon returns the canonically smallest item a and b share within
// the first p canonical items of each, or CatchAllItem when those
// prefixes are disjoint — the one group a duplicate-free pipeline
// emits the pair in. p ≥ k compares whole rankings.
func (o *Order) MinCommon(a, b *Ranking, p int) Item {
	best, bestRank := CatchAllItem, int32(-1)
	for _, it := range a.Items {
		if b.Contains(it) {
			if r := o.Rank(it); bestRank < 0 || r < bestRank {
				best, bestRank = it, r
			}
		}
	}
	// If the prefixes share any item they share the smallest common
	// one (everything canonically before a prefix item is in the
	// prefix), so it suffices to place that one item.
	if bestRank >= 0 && !(o.inPrefix(a, bestRank, p) && o.inPrefix(b, bestRank, p)) {
		return CatchAllItem
	}
	return best
}

// inPrefix reports whether r's item at canonical rank `rank` is among
// r's first p canonical items.
func (o *Order) inPrefix(r *Ranking, rank int32, p int) bool {
	if p >= len(r.Items) {
		return true
	}
	before := 0
	for _, it := range r.Items {
		if o.Rank(it) < rank {
			before++
		}
	}
	return before < p
}

// IdentityOrder returns an ordering that sorts items by their id,
// standing in for "no reordering" in the ordering-phase ablation.
func IdentityOrder() *Order { return &Order{rank: map[Item]int32{}} }
