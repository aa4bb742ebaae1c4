package shard

import "slices"

// resultHeap is a bounded max-heap of neighbors ordered by distance
// (ties by id, larger id worse), keeping the n best seen so far. It is
// the merge structure for both the per-shard kNN scan and the
// cross-shard fan-in: pushes beyond capacity evict the current worst.
// The backing array survives reset, so a heap embedded in a reusable
// arena allocates only until its high-water capacity is reached.
type resultHeap struct {
	cap int
	ns  []Neighbor
}

// reset re-arms the heap for a new query of capacity n, keeping the
// backing array.
func (h *resultHeap) reset(n int) {
	h.cap = n
	h.ns = h.ns[:0]
}

// worse orders the heap: a is a strictly worse result than b.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

// cmpNeighbor is the ascending (dist, id) order of every result list.
func cmpNeighbor(a, b Neighbor) int {
	if a.Dist != b.Dist {
		return a.Dist - b.Dist
	}
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

func (h *resultHeap) full() bool { return len(h.ns) >= h.cap }

// worst returns the distance of the current worst kept neighbor; only
// meaningful when full().
func (h *resultHeap) worst() int { return h.ns[0].Dist }

// push offers a neighbor; when full, it replaces the root only if the
// newcomer is strictly better.
func (h *resultHeap) push(n Neighbor) {
	if h.cap <= 0 {
		return
	}
	if len(h.ns) < h.cap {
		h.ns = append(h.ns, n)
		h.up(len(h.ns) - 1)
		return
	}
	if !worse(n, h.ns[0]) {
		h.ns[0] = n
		h.down(0)
	}
}

func (h *resultHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.ns[i], h.ns[parent]) {
			return
		}
		h.ns[i], h.ns[parent] = h.ns[parent], h.ns[i]
		i = parent
	}
}

func (h *resultHeap) down(i int) {
	n := len(h.ns)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && worse(h.ns[l], h.ns[w]) {
			w = l
		}
		if r < n && worse(h.ns[r], h.ns[w]) {
			w = r
		}
		if w == i {
			return
		}
		h.ns[i], h.ns[w] = h.ns[w], h.ns[i]
		i = w
	}
}

// appendSorted sorts the kept neighbors into ascending (dist, id) order
// and appends them to dst, leaving the heap reusable via reset.
func (h *resultHeap) appendSorted(dst []Neighbor) []Neighbor {
	slices.SortFunc(h.ns, cmpNeighbor)
	return append(dst, h.ns...)
}
