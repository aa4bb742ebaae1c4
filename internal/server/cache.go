package server

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// queryCache is the LRU result cache for /v1/search and /v1/knn. Each
// entry is tagged with the per-shard epoch vector observed *before* the
// sweep that produced it; a lookup only hits when every shard's epoch
// still matches, so any Insert/Delete (which bumps its shard's epoch)
// invalidates affected entries implicitly — there is no explicit
// invalidation path to get wrong. Tagging before the sweep is the
// conservative side: a mutation racing the sweep makes the entry look
// stale on its next lookup even if the sweep already saw the mutation.
type queryCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry struct {
	key    string
	epochs []uint64
	hits   []shard.Neighbor
}

// newQueryCache builds a cache of the given capacity; cap <= 0 returns
// nil, and a nil *queryCache is a valid always-miss sink.
func newQueryCache(cap int) *queryCache {
	if cap <= 0 {
		return nil
	}
	return &queryCache{cap: cap, ll: list.New(), m: make(map[string]*list.Element, cap)}
}

// cacheKey renders a canonical key for a query. Rankings with equal
// items and equal parameters share a key regardless of how the request
// spelled them.
func cacheKey(kind string, q *rankings.Ranking, param int, exclude int64) string {
	var b strings.Builder
	b.Grow(16 + 8*len(q.Items))
	b.WriteString(kind)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(param))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(exclude, 10))
	for _, it := range q.Items {
		b.WriteByte('|')
		b.WriteString(strconv.FormatInt(int64(it), 10))
	}
	return b.String()
}

// get returns the cached neighbors when present and epoch-current.
func (c *queryCache) get(key string, epochs []uint64) ([]shard.Neighbor, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	if ok {
		e := el.Value.(*cacheEntry)
		if slices.Equal(e.epochs, epochs) {
			c.ll.MoveToFront(el)
			hits := e.hits
			c.mu.Unlock()
			c.hits.Add(1)
			return hits, true
		}
		// Stale under the current epochs: drop it now so the map does
		// not accumulate dead entries for churned shards.
		c.ll.Remove(el)
		delete(c.m, key)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// put stores a result tagged with the epoch vector captured before the
// sweep.
func (c *queryCache) put(key string, epochs []uint64, hits []shard.Neighbor) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*cacheEntry)
		e.epochs = epochs
		e.hits = hits
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, epochs: epochs, hits: hits})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
}

func (c *queryCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func (c *queryCache) capacity() int {
	if c == nil {
		return 0
	}
	return c.cap
}

func (c *queryCache) stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}
