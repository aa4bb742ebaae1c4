package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// Config sizes a sharded index.
type Config struct {
	// Shards is the number of index partitions (default 8). More shards
	// mean finer write locking and more fan-out parallelism per query.
	Shards int
	// PivotsPerShard caps each shard's one background pivot selection
	// (default 8), and Seed drives it; shards derive distinct streams.
	// Neither changes any result, ledger or epoch: no query reads the
	// pivots (see Shard.pivots). Both stay only because the benchmark
	// harness sets them.
	PivotsPerShard int
	Seed           int64
}

// Index is the sharded dynamic index: rankings are routed to shards by
// hashed id, every shard is independently mutable and searchable, and
// queries fan out across all shards with the per-shard results merged
// into (dist, id) order. All methods are safe for concurrent use.
type Index struct {
	shards    []*Shard
	spanNames []string // precomputed "shard/i" task names (no per-sweep Sprintf)
	filters   obs.FilterCounters
	pool      sync.Pool // of *Batch, for the copying Search/KNN/SearchBatch wrappers

	// writeHook is shared with every shard; SetWriteHook swaps it.
	writeHook atomic.Pointer[WriteHook]

	mu sync.RWMutex
	k  int // established ranking length; 0 until the first insert
}

// New builds an empty index.
func New(cfg Config) *Index {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.PivotsPerShard <= 0 {
		cfg.PivotsPerShard = 8
	}
	x := &Index{
		shards:    make([]*Shard, cfg.Shards),
		spanNames: make([]string, cfg.Shards),
	}
	for i := range x.shards {
		x.shards[i] = newShard(cfg.PivotsPerShard, cfg.Seed+int64(i)*7_919)
		x.shards[i].id = i
		x.shards[i].writeHook = &x.writeHook
		x.spanNames[i] = fmt.Sprintf("shard/%d", i)
	}
	x.pool.New = func() any { return x.NewBatch() }
	return x
}

// splitmix64 scrambles ids into shard choices; sequential ids (the
// common case for datasets numbered by line) must not all land on the
// same shard, and id%shards would stripe deletes and hot ids unevenly
// for clustered id spaces.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (x *Index) shardFor(id int64) *Shard {
	return x.shards[x.ShardOf(id)]
}

// ShardOf returns the shard ordinal that owns id — the routing
// function, exported so durability and replication layers can address
// per-shard logs by the same placement.
func (x *Index) ShardOf(id int64) int {
	return int(splitmix64(uint64(id)) % uint64(len(x.shards)))
}

// NumShards returns the shard count.
func (x *Index) NumShards() int { return len(x.shards) }

// K returns the established ranking length (0 while the index has
// never been inserted into). The first insert fixes k for the lifetime
// of the index, mirroring the paper's fixed-length datasets.
func (x *Index) K() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.k
}

func (x *Index) ensureK(k int) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.k == 0 {
		x.k = k
		return nil
	}
	if x.k != k {
		return fmt.Errorf("%w: index k=%d, got k=%d", ErrKMismatch, x.k, k)
	}
	return nil
}

func (x *Index) checkQuery(q *rankings.Ranking) error {
	if q == nil {
		return ErrNilRanking
	}
	x.mu.RLock()
	k := x.k
	x.mu.RUnlock()
	if k != 0 && q.K() != k {
		return fmt.Errorf("%w: index k=%d, query k=%d", ErrKMismatch, k, q.K())
	}
	return nil
}

// Insert adds r (upsert by id), building its position index if needed.
// With a write hook installed (SetWriteHook), the error also carries
// the durability barrier's verdict: non-nil means the write is in
// memory but not durable and must not be acknowledged.
func (x *Index) Insert(r *rankings.Ranking) error {
	if r == nil {
		return ErrNilRanking
	}
	if err := x.ensureK(r.K()); err != nil {
		return err
	}
	r.Index()
	return x.shardFor(r.ID).Insert(r)
}

// Delete removes the ranking with the given id, reporting presence.
// A miss moves no epoch and logs nothing; the error is the durability
// barrier's verdict, as in Insert.
func (x *Index) Delete(id int64) (bool, error) { return x.shardFor(id).Delete(id) }

// ApplyInsert replays an already-logged upsert: the target shard's
// epoch is forced to the record's stamp and the write hook is not
// invoked. See Shard.ApplyInsert.
func (x *Index) ApplyInsert(r *rankings.Ranking, epoch uint64) error {
	if r == nil {
		return ErrNilRanking
	}
	if err := x.ensureK(r.K()); err != nil {
		return err
	}
	r.Index()
	x.shardFor(r.ID).ApplyInsert(r, epoch)
	return nil
}

// ApplyDelete replays an already-logged delete, reporting presence.
// See Shard.ApplyDelete.
func (x *Index) ApplyDelete(id int64, epoch uint64) bool {
	return x.shardFor(id).ApplyDelete(id, epoch)
}

// RestoreShard atomically replaces shard i's contents with rs at the
// given epoch — the snapshot-load primitive for recovery and full
// replica syncs. Every ranking must route to shard i; a misrouted or
// length-mismatched ranking aborts before anything is touched.
func (x *Index) RestoreShard(i int, rs []*rankings.Ranking, epoch uint64) error {
	if i < 0 || i >= len(x.shards) {
		return fmt.Errorf("shard: restore shard %d out of range [0,%d)", i, len(x.shards))
	}
	for _, r := range rs {
		if r == nil {
			return ErrNilRanking
		}
		if x.ShardOf(r.ID) != i {
			return fmt.Errorf("shard: restore ranking %d routes to shard %d, not %d",
				r.ID, x.ShardOf(r.ID), i)
		}
	}
	if len(rs) > 0 {
		if err := x.ensureK(rs[0].K()); err != nil {
			return err
		}
		for _, r := range rs {
			if r.K() != rs[0].K() {
				return fmt.Errorf("%w: restore set mixes k=%d and k=%d",
					ErrKMismatch, rs[0].K(), r.K())
			}
			r.Index()
		}
	}
	x.shards[i].Restore(rs, epoch)
	return nil
}

// Get returns the indexed ranking with the given id.
func (x *Index) Get(id int64) (*rankings.Ranking, bool) { return x.shardFor(id).Get(id) }

// Len returns the total number of indexed rankings.
func (x *Index) Len() int {
	n := 0
	for _, s := range x.shards {
		n += s.Len()
	}
	return n
}

// Cardinalities returns the per-shard entry counts in shard order — the
// cheap size accessor for status pages and pre-sizing heuristics: one
// RLock and one int per shard, where Snapshot copies every ranking
// pointer and Stats assembles full per-shard statistics.
func (x *Index) Cardinalities() []int {
	out := make([]int, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Len()
	}
	return out
}

// Epochs returns the per-shard mutation epochs — the cache-invalidation
// vector: any entry differing from a previously observed vector means
// that shard's contents may have changed.
func (x *Index) Epochs() []uint64 {
	es := make([]uint64, len(x.shards))
	for i, s := range x.shards {
		es[i] = s.Epoch()
	}
	return es
}

// Snapshot returns all indexed rankings along with the per-shard
// epochs they were read at.
//
// Consistency contract: each shard's segment of the result is captured
// together with its epoch under ONE lock hold (Shard.Snapshot), so
// every (rankings, epoch) pair is internally consistent. Across shards
// the union is TORN under concurrent churn — shard j's segment may be
// newer than shard i's — so the index-wide result is not a point-in-
// time cut and must never be used directly as a recovery or
// replication cursor. It doesn't need to be: epochs order mutations
// within a shard only, so a per-shard-consistent dump plus each
// shard's WAL suffix above its own snapshot epoch reconstructs any
// later state exactly (internal/wal replays precisely this way, and
// TestTornSnapshotPlusWALReplay proves it). Callers needing a
// consistent single shard should use SnapshotShard.
func (x *Index) Snapshot() ([]*rankings.Ranking, []uint64) {
	var rs []*rankings.Ranking
	es := make([]uint64, len(x.shards))
	for i, s := range x.shards {
		part, e := s.Snapshot()
		rs = append(rs, part...)
		es[i] = e
	}
	return rs, es
}

// SnapshotShard captures shard i's rankings and epoch under one lock
// hold; a non-nil barrier runs under that same hold (see
// Shard.SnapshotAnd).
func (x *Index) SnapshotShard(i int, barrier func()) ([]*rankings.Ranking, uint64) {
	return x.shards[i].SnapshotAnd(barrier)
}

// Filters exposes the index's query ledger (Generated = PrunedPrefix +
// Verified across all sweeps: an entry on none of a query's posting
// lists is pruned unread, every other one gets its exact distance from
// the accumulation; Emitted counts hits).
func (x *Index) Filters() *obs.FilterCounters { return &x.filters }

// SetWriteHook installs fn as the observer of every Insert/Delete
// across all shards (nil uninstalls); see WriteHook for the locking
// and ordering contract. Install it BEFORE accepting writes and after
// any recovery replay, or the log will miss (or double) records.
func (x *Index) SetWriteHook(fn WriteHook) {
	if fn == nil {
		x.writeHook.Store(nil)
		return
	}
	x.writeHook.Store(&fn)
}

// Stats returns per-shard statistics in shard order.
func (x *Index) Stats() []Stats {
	out := make([]Stats, len(x.shards))
	for i, s := range x.shards {
		out[i] = s.Stats()
	}
	return out
}

// Search returns every indexed ranking within maxDist of q (excluding
// the indexed ranking whose id equals exclude; pass NoExclude to keep
// everything), sorted ascending by (dist, id).
func (x *Index) Search(q *rankings.Ranking, maxDist int, exclude int64) ([]Neighbor, error) {
	res, err := x.SearchBatch([]Query{{R: q, MaxDist: maxDist, Exclude: exclude}}, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// KNN returns the n indexed rankings closest to q (self-exclusion as
// in Search), sorted ascending by (dist, id).
func (x *Index) KNN(q *rankings.Ranking, n int, exclude int64) ([]Neighbor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: knn n must be positive, got %d", n)
	}
	res, err := x.SearchBatch([]Query{{R: q, KNN: n, Exclude: exclude}}, nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch answers a batch of queries in one fan-out sweep: every
// shard is visited exactly once (one RLock, all queries), shards run
// concurrently, and per-shard partial results are merged per query.
// The span, when non-nil, receives one task child per shard. The
// server answers each query-cache miss through a one-query call.
//
// The returned slices are private to the caller (copied out of the
// pooled execution arena); callers that issue many queries and can
// tolerate arena aliasing should hold a Batch and use SearchBatchInto
// instead, which allocates nothing in steady state.
func (x *Index) SearchBatch(qs []Query, span *obs.Span) ([][]Neighbor, error) {
	b := x.pool.Get().(*Batch)
	defer x.pool.Put(b)
	views, err := b.SearchBatchInto(qs, span)
	if err != nil {
		return nil, err
	}
	out := make([][]Neighbor, len(views))
	for i, v := range views {
		if len(v) > 0 {
			out[i] = append([]Neighbor(nil), v...)
		}
	}
	return out, nil
}
