package rankjoin

import (
	"errors"
	"fmt"

	"rankjoin/internal/rankings"
)

// KendallTau computes Kendall's tau distance for top-k lists (Fagin et
// al.'s p=0 adaptation) — a companion measure to Footrule. The join
// algorithms use Footrule (a metric with known prefix bounds); tau is
// exposed for applications that want to re-rank or inspect results.
func KendallTau(a, b *Ranking) int { return rankings.KendallTau(a, b) }

// Errors reported by the search indexes.
var (
	// ErrEmptyIndex reports an attempt to build an index over zero
	// rankings. An empty index cannot fix the ranking length k, so
	// every later query would be unanswerable; fail at build time.
	ErrEmptyIndex = errors.New("rankjoin: cannot index an empty dataset")

	// ErrNilQuery reports a nil query ranking.
	ErrNilQuery = errors.New("rankjoin: nil query ranking")

	// ErrQueryLength reports a query whose length differs from the
	// indexed rankings' (Footrule thresholds are only comparable
	// between rankings of equal k).
	ErrQueryLength = errors.New("rankjoin: query length does not match indexed rankings")

	// ErrThetaRange reports a normalized distance threshold outside
	// [0, 1].
	ErrThetaRange = errors.New("rankjoin: theta must be in [0, 1]")
)

// Index is the static counterpart of ShardedIndex: the same index, one
// shard, filled once by BuildIndex. Range queries prune most of the
// dataset with the item-signature filter and the triangle inequality
// over precomputed pivot distances before computing any real distance
// (the "coarse index" idea from the authors' earlier work on
// top-k-list similarity search). Results are exact whether or not the
// shard's background pivot build has finished.
type Index struct {
	idx *ShardedIndex
}

// BuildIndex indexes the dataset with the given number of pivots
// (8–16 is a good range; more pivots prune better but cost more per
// query). The dataset must be non-empty (ErrEmptyIndex otherwise),
// uniform-length and free of duplicate ids (ErrDuplicateID: the index
// keys rankings by id, so a repeat would silently replace the first).
func BuildIndex(rs []*Ranking, numPivots int) (*Index, error) {
	if len(rs) == 0 {
		return nil, ErrEmptyIndex
	}
	if _, err := rankings.UniformK(rs); err != nil {
		return nil, err
	}
	if err := checkUniqueIDs(rs); err != nil {
		return nil, err
	}
	if numPivots < 1 {
		return nil, fmt.Errorf("rankjoin: numPivots must be positive, got %d", numPivots)
	}
	x := NewShardedIndex(ShardedIndexConfig{Shards: 1, PivotsPerShard: numPivots, Seed: 1})
	for _, r := range rs {
		if err := x.Insert(r); err != nil {
			return nil, err
		}
	}
	return &Index{idx: x}, nil
}

// Search returns every indexed ranking within normalized Footrule
// distance theta of the query (excluding the query itself when it is
// indexed, matched by id), as canonical pairs sorted by (distance,
// ids). The query must have the indexed length (ErrQueryLength) and
// theta must lie in [0, 1] (ErrThetaRange).
func (x *Index) Search(q *Ranking, theta float64) ([]Pair, error) {
	if q == nil {
		return nil, ErrNilQuery
	}
	if k := x.idx.idx.K(); q.K() != k {
		return nil, fmt.Errorf("%w: query has %d items, index has %d", ErrQueryLength, q.K(), k)
	}
	return x.idx.Search(q, theta)
}
