// Package rankings defines fixed-length top-k rankings and the top-k
// adaptation of Spearman's Footrule distance (Fagin et al.), which the
// similarity-join algorithms in this repository operate on.
//
// A top-k ranking is a bijection from a domain of k items onto the rank
// positions 0..k-1, where position 0 is the best (top) rank. Two rankings
// need not share a domain. Items are represented by integer ids.
package rankings

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Item identifies a ranked entity (a token, movie, product, ...).
type Item = int32

// CatchAllItem is a reserved token the join pipelines emit for every
// ranking when the distance threshold is so loose that two rankings
// can be within it while sharing no item (MinOverlap == 0, i.e.
// θ + 2θc ≥ 1). Prefix filtering is incomplete in that degenerate
// regime — disjoint rankings meet no posting list — so the catch-all
// group pairs everything with everything. Real item ids never take
// this value (it is the minimum int32).
const CatchAllItem Item = -1 << 31

// Ranking is a fixed-length top-k list. Items[r] is the item placed at
// rank r (0-based; rank 0 is the top position). A ranking contains no
// duplicate items.
type Ranking struct {
	// ID uniquely identifies the ranking within a dataset.
	ID int64 `json:"id"`
	// Items holds the ranked items, best first.
	Items []Item `json:"items"`

	// idxItems/idxRanks form the flat position index: the ranking's
	// items sorted ascending, with idxRanks[i] holding the rank of
	// idxItems[i]. For the small k of top-k lists (k ≤ 25 throughout
	// the paper) searching a sorted array beats a hash map probe —
	// no hashing, no pointer chasing — and the sorted layout lets the
	// Footrule kernels walk two rankings in one merged pass. Built by
	// Index.
	idxItems []Item
	idxRanks []int32

	// sig/sigPop cache the 128-bit item signature (see signature.go),
	// filled in by Index alongside the position index.
	sig    Sig
	sigPop int32
}

// New constructs a ranking and validates that items are duplicate-free.
func New(id int64, items []Item) (*Ranking, error) {
	r := &Ranking{ID: id, Items: items}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// MustNew is New for tests and examples with known-good data; it panics
// on invalid input.
func MustNew(id int64, items []Item) *Ranking {
	r, err := New(id, items)
	if err != nil {
		panic(err)
	}
	return r
}

// ErrDuplicateItem reports a ranking that mentions the same item twice.
var ErrDuplicateItem = errors.New("rankings: duplicate item in ranking")

// ErrEmpty reports a ranking without items.
var ErrEmpty = errors.New("rankings: empty ranking")

// ErrMixedLengths reports a dataset mixing ranking lengths. The
// Footrule threshold θ·k(k+1) is only meaningful for a single k.
var ErrMixedLengths = errors.New("rankjoin: rankings have mixed lengths")

// UniformK returns the one length k every ranking of rs has (0 for an
// empty dataset), or an error wrapping ErrMixedLengths — the input
// check every join shares.
func UniformK(rs []*Ranking) (k int, err error) {
	if len(rs) == 0 {
		return 0, nil
	}
	k = rs[0].K()
	for _, r := range rs {
		if r.K() != k {
			return 0, fmt.Errorf("%w: %d and %d", ErrMixedLengths, k, r.K())
		}
	}
	return k, nil
}

// Validate checks the structural invariants of a top-k list: at least
// one item and no duplicates.
func (r *Ranking) Validate() error {
	if len(r.Items) == 0 {
		return fmt.Errorf("ranking %d: %w", r.ID, ErrEmpty)
	}
	// Top-k lists are short (k ≤ 25 throughout the paper): up to 32
	// items a pairwise scan beats building a set and allocates nothing,
	// which every decoded WAL record and snapshot entry pays for.
	if len(r.Items) <= 32 {
		for i, it := range r.Items {
			if slices.Contains(r.Items[:i], it) {
				return fmt.Errorf("ranking %d: item %d: %w", r.ID, it, ErrDuplicateItem)
			}
		}
		return nil
	}
	seen := make(map[Item]struct{}, len(r.Items))
	for _, it := range r.Items {
		if _, dup := seen[it]; dup {
			return fmt.Errorf("ranking %d: item %d: %w", r.ID, it, ErrDuplicateItem)
		}
		seen[it] = struct{}{}
	}
	return nil
}

// K returns the length of the ranking.
func (r *Ranking) K() int { return len(r.Items) }

// Index builds the flat (item, rank) position index. Calling it once
// after load makes subsequent Pos (and therefore Footrule) calls
// allocation-free and unlocks the merged single-pass Footrule kernels.
// It is idempotent. Index is not safe for concurrent use with itself;
// build indexes before sharing a ranking across goroutines.
func (r *Ranking) Index() {
	if r.idxItems != nil {
		return
	}
	n := len(r.Items)
	r.index(make([]Item, n), make([]int32, n))
}

// index fills the position index and signature into the two given
// arrays, each len(r.Items) long.
func (r *Ranking) index(items []Item, ranks []int32) {
	copy(items, r.Items)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	// Tandem insertion sort: for k ≤ 25 this beats sort.Sort's
	// interface dispatch and allocates nothing beyond the two arrays.
	for i := 1; i < len(items); i++ {
		it, rk := items[i], ranks[i]
		j := i - 1
		for j >= 0 && items[j] > it {
			items[j+1], ranks[j+1] = items[j], ranks[j]
			j--
		}
		items[j+1], ranks[j+1] = it, rk
	}
	sig, pop := computeSignature(items)
	r.sig, r.sigPop = sig, int32(pop)
	r.idxItems, r.idxRanks = items, ranks
}

// Indexed reports whether the position index has been built.
func (r *Ranking) Indexed() bool { return r.idxItems != nil }

// Pos returns the rank of item and whether the ranking contains it.
func (r *Ranking) Pos(item Item) (int32, bool) {
	if r.idxItems == nil {
		// Small k: a linear scan avoids building the index for
		// throwaway rankings.
		for rank, it := range r.Items {
			if it == item {
				return int32(rank), true
			}
		}
		return 0, false
	}
	// Linear scan over the sorted index with an early stop. For the
	// k ≤ 25 the paper considers, the pipelined sequential loads beat
	// both a hash probe (hashing latency) and binary search (a serial
	// chain of dependent loads).
	for i, it := range r.idxItems {
		if it >= item {
			if it == item {
				return r.idxRanks[i], true
			}
			return 0, false
		}
	}
	return 0, false
}

// Prefix returns the ranking's p smallest items (all of them when
// p ≥ k), ascending, with ranks[i] the rank of items[i]: the items
// prefix filtering indexes. On a renumbered ranking (Order.Renumber)
// they are its p rarest; on a raw one, its p smallest ids — the
// identity order of the no-reordering ablation. The ranking must be
// indexed (Prefix panics otherwise). Both slices alias the index:
// read them, never write them.
func (r *Ranking) Prefix(p int) (items []Item, ranks []int32) {
	if r.idxItems == nil {
		panic("rankings: Prefix of an unindexed ranking")
	}
	p = min(p, len(r.idxItems))
	return r.idxItems[:p:p], r.idxRanks[:p:p]
}

// Contains reports whether the ranking mentions item.
func (r *Ranking) Contains(item Item) bool {
	_, ok := r.Pos(item)
	return ok
}

// Domain returns the ranking's items in ascending item-id order.
func (r *Ranking) Domain() []Item {
	if r.idxItems != nil {
		return append([]Item(nil), r.idxItems...)
	}
	d := make([]Item, len(r.Items))
	copy(d, r.Items)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// Overlap counts the items the two rankings share.
func Overlap(a, b *Ranking) int {
	short, long := a, b
	if len(short.Items) > len(long.Items) {
		short, long = long, short
	}
	long.Index()
	n := 0
	for _, it := range short.Items {
		if long.Contains(it) {
			n++
		}
	}
	return n
}

// Equal reports whether the two rankings place the same items at the
// same ranks (ids are ignored).
func Equal(a, b *Ranking) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy sharing no state with r.
func (r *Ranking) Clone() *Ranking {
	items := make([]Item, len(r.Items))
	copy(items, r.Items)
	return &Ranking{ID: r.ID, Items: items}
}

// String renders the ranking as "id:[i0 i1 ...]".
func (r *Ranking) String() string {
	return fmt.Sprintf("%d:%v", r.ID, r.Items)
}
