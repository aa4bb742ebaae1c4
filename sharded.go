package rankjoin

import (
	"fmt"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// Neighbor is one search hit from a ShardedIndex: the id of an indexed
// ranking and its (unnormalized) Footrule distance to the query.
type Neighbor = shard.Neighbor

// ShardedIndex is the dynamic counterpart of Index: a sharded inverted
// index that supports Insert and Delete between queries and computes
// every query's distances exactly from the query's own posting lists.
// It is safe for concurrent use. This is the structure cmd/rankserved
// serves over HTTP; embed it directly for in-process serving.
//
// Unlike Index (built once over a fixed dataset), a ShardedIndex
// starts empty: the first Insert fixes the ranking length k, and later
// inserts and queries must match it.
type ShardedIndex struct {
	idx *shard.Index
}

// ShardedIndexConfig configures a ShardedIndex. The zero value is
// usable: 8 shards.
type ShardedIndexConfig struct {
	// Shards is the number of independently locked partitions.
	// More shards mean finer-grained write contention.
	Shards int
}

// NewShardedIndex returns an empty dynamic index.
func NewShardedIndex(cfg ShardedIndexConfig) *ShardedIndex {
	return &ShardedIndex{idx: shard.New(shard.Config{Shards: cfg.Shards})}
}

// Insert adds the ranking, replacing any previous ranking with the
// same id. The first insert fixes the index's ranking length.
func (x *ShardedIndex) Insert(r *Ranking) error { return x.idx.Insert(r) }

// Delete removes the ranking with the given id, reporting whether it
// was present. The error carries the durability barrier's verdict when
// a write-ahead log is attached to the index; without one it is always
// nil.
func (x *ShardedIndex) Delete(id int64) (bool, error) { return x.idx.Delete(id) }

// Len returns the number of indexed rankings.
func (x *ShardedIndex) Len() int { return x.idx.Len() }

// Search returns every indexed ranking within normalized Footrule
// distance theta of the query, as canonical pairs sorted by (distance,
// ids) — the same contract as Index.Search. When the query's id is
// indexed, that entry is excluded (so searching with an indexed
// ranking returns its neighbors, not itself). The shards' hits come
// back in (distance, hit id) order, and for one query that is already
// the pairs' (Dist, A, B) order.
func (x *ShardedIndex) Search(q *Ranking, theta float64) ([]Pair, error) {
	if q == nil {
		return nil, ErrNilQuery
	}
	if !rankings.ThetaInRange(theta) {
		return nil, fmt.Errorf("%w: got %v", ErrThetaRange, theta)
	}
	k := x.idx.K()
	if k == 0 {
		return nil, nil
	}
	hits, err := x.idx.Search(q, rankings.Threshold(theta, k), q.ID)
	if err != nil {
		return nil, err
	}
	pairs := make([]Pair, len(hits))
	for i, h := range hits {
		pairs[i] = rankings.NewPair(q.ID, h.ID, h.Dist)
	}
	return pairs, nil
}

// KNN returns the n indexed rankings closest to the query in Footrule
// distance, ascending (ties broken by id), excluding the query's own
// id. Fewer than n are returned when the index is smaller.
func (x *ShardedIndex) KNN(q *Ranking, n int) ([]Neighbor, error) {
	if q == nil {
		return nil, ErrNilQuery
	}
	return x.idx.KNN(q, n, q.ID)
}
