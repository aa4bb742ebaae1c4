// Package shard implements the online serving index: a sharded,
// dynamically updatable index over top-k rankings. Each shard keeps an
// inverted index — item → postings of (entry, rank) — that absorbs
// Insert/Delete traffic under an RWMutex, and answers range and kNN
// queries by walking only the query's own k posting lists: the top-k
// Footrule is set entirely by the items two rankings share,
//
//	F(q, e) = k(k+1) − Σ_{shared items} 2(k − max(rank_q, rank_e)),
//
// so summing each posting's term gives every touched entry its exact
// distance, and every untouched entry is at exactly k(k+1). Nothing is
// generated as a candidate and then verified.
//
// Every mutation bumps the owning shard's epoch by exactly one, so the
// per-shard epoch is a dense cursor over that shard's mutation history:
// epoch E names the state after the E-th mutation. Epochs order nothing
// across shards; they exist so snapshots are verifiable (same epoch ⇒
// same contents), so query caches can be invalidated per shard without
// a global generation counter, and so a write-ahead log or replication
// stream can address "everything after epoch E" with a contiguity
// check.
//
// Each shard also chooses a handful of pivot rankings once, in the
// background, when it first holds minRePivotSize entries (and again
// after a Restore). No query reads them; Stats reports them because the
// benchmark harness waits for them before it starts timing. The
// selection does NOT move the epoch: it changes no result set, and
// replicas choose their own.
package shard

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"rankjoin/internal/rankings"
)

// ErrKMismatch reports an inserted or queried ranking whose length
// differs from the index's established k.
var ErrKMismatch = errors.New("shard: ranking length does not match index k")

// ErrNilRanking reports a nil ranking handed to Insert or a query.
var ErrNilRanking = errors.New("shard: nil ranking")

// NoExclude is the Query.Exclude sentinel meaning "exclude nothing" —
// used for ad-hoc queries that are not themselves indexed.
const NoExclude int64 = math.MinInt64

// Neighbor is one search hit: the indexed ranking's id and its
// unnormalized Footrule distance to the query.
type Neighbor struct {
	ID   int64 `json:"id"`
	Dist int   `json:"dist"`
}

// Query is one unit of a shard sweep. KNN > 0 selects top-KNN mode
// (MaxDist is ignored); otherwise MaxDist is the inclusive range
// threshold. Exclude drops the indexed ranking with that id from the
// results (pass NoExclude to keep everything).
type Query struct {
	R       *rankings.Ranking
	MaxDist int
	KNN     int
	Exclude int64
}

// posting is one entry's appearance on an item's posting list: the
// entry's index in Shard.entries and the item's rank in that entry.
// A rank is an int32 in rankings' own position index too, so every k
// the index accepts fits; an entry index is an int32, so a shard holds
// at most 2³¹−1 rankings, where its entries slice alone takes 16 GiB.
type posting struct {
	ent  int32
	rank int32
}

// Op tags one logged mutation. Its values are the first byte of a
// write-ahead-log frame (internal/wal), so they never change.
type Op uint8

const (
	OpInsert Op = 1
	OpDelete Op = 2
)

// WriteRecord describes one applied mutation as seen by the write
// hook: the owning shard, the operation, the epoch the shard reached
// by applying it, and the subject. Ranking is nil for deletes and
// shared (immutable) for inserts.
type WriteRecord struct {
	Shard   int
	Op      Op
	Epoch   uint64
	ID      int64
	Ranking *rankings.Ranking
}

// WriteHook observes every Insert/Delete. It is invoked while the
// owning shard's write lock is still held, so per shard it sees
// records in strictly increasing epoch order and must be fast — append
// to a buffer, never fsync or block. It may return a commit function,
// which the mutation runs after the lock is released and whose error
// becomes the mutation's return value: that is where a write-ahead log
// waits for its group-commit fsync, keeping the durability stall out
// of the lock while still refusing to acknowledge a write that is not
// on disk. Replayed mutations (ApplyInsert/ApplyDelete/Restore) bypass
// the hook — they are already logged elsewhere.
type WriteHook func(WriteRecord) func() error

// Shard is one RWMutex-guarded partition of the index. All exported
// methods are safe for concurrent use.
type Shard struct {
	maxPivots int
	seed      int64
	id        int                        // ordinal within the owning Index
	writeHook *atomic.Pointer[WriteHook] // owning Index's write hook; nil standalone

	mu sync.RWMutex
	// pivots is chosen once by the background selection and read by
	// nothing but Stats: the benchmark harness (benchmark/scenario.go,
	// waitForPivots) polls Stats().Pivots until every shard has some
	// before it starts timing, so the selection stays until that harness
	// accepts a shard without pivots. A pivot a later delete removes
	// stays referenced until the next Restore.
	pivots  []*rankings.Ranking
	entries []*rankings.Ranking
	byID    map[int64]int
	// The inverted index: lists[index[item]] holds one posting per entry
	// ranking item. A list that empties leaves the index and its slot
	// goes on free for the next new item. Mapping items to 4-byte slots
	// rather than to slice headers keeps the map's tables, which a
	// filling shard regrows several times, a quarter of the size.
	index map[rankings.Item]int32
	lists [][]posting
	free  []int32

	// epoch is written under mu and read either under mu (consistent
	// snapshots) or raw (cache tags, which only need monotonicity).
	epoch atomic.Uint64

	// rePivots counts completed selections; repivoting keeps a second
	// one from starting while the first runs.
	rePivots   atomic.Int64
	repivoting atomic.Bool
}

func newShard(maxPivots int, seed int64) *Shard {
	return &Shard{
		maxPivots: maxPivots,
		seed:      seed,
		byID:      make(map[int64]int),
		index:     make(map[rankings.Item]int32),
	}
}

// Insert adds r to the shard, replacing any previous ranking with the
// same id (upsert). The caller must have built r's position index
// (Ranking.Index) before handing it over; Index-level Insert does.
// With a write hook installed, a non-nil error means the mutation is
// applied in memory but its durability barrier failed — the write must
// not be acknowledged.
func (s *Shard) Insert(r *rankings.Ranking) error {
	s.mu.Lock()
	s.upsertLocked(r)
	epoch := s.epoch.Add(1)
	commit := s.logLocked(WriteRecord{Shard: s.id, Op: OpInsert, Epoch: epoch, ID: r.ID, Ranking: r})
	due := s.rePivotDueLocked()
	s.mu.Unlock()
	if due {
		s.triggerRePivot()
	}
	if commit != nil {
		return commit()
	}
	return nil
}

// upsertLocked installs r (upsert by id). Caller holds s.mu.
func (s *Shard) upsertLocked(r *rankings.Ranking) {
	if i, ok := s.byID[r.ID]; ok {
		s.unpostLocked(i, s.entries[i])
		s.entries[i] = r
		s.postLocked(i, r)
		return
	}
	i := len(s.entries)
	s.byID[r.ID] = i
	s.entries = append(s.entries, r)
	s.postLocked(i, r)
}

// postLocked appends entry ei's postings, one per item of r. Caller
// holds s.mu.
func (s *Shard) postLocked(ei int, r *rankings.Ranking) {
	for rank, it := range r.Items {
		li, ok := s.index[it]
		if !ok {
			li = s.newListLocked(it)
		}
		s.lists[li] = append(s.lists[li], posting{ent: int32(ei), rank: int32(rank)})
	}
}

// newListLocked gives item it an empty list, reusing a freed slot when
// there is one. Caller holds s.mu.
func (s *Shard) newListLocked(it rankings.Item) int32 {
	var li int32
	if n := len(s.free); n > 0 {
		li = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.lists) == cap(s.lists) {
			// Double explicitly: past 256 slots append grows by a quarter,
			// which allocates about five times the final array while a
			// shard fills.
			s.lists = slices.Grow(s.lists, len(s.lists))
		}
		li = int32(len(s.lists))
		s.lists = append(s.lists, nil)
	}
	s.index[it] = li
	return li
}

// unpostLocked removes entry ei's postings (r holds its items), each by
// a scan of its list and a swap-remove. Caller holds s.mu.
func (s *Shard) unpostLocked(ei int, r *rankings.Ranking) {
	for _, it := range r.Items {
		li := s.index[it]
		l := s.lists[li]
		l[postingOf(l, ei)] = l[len(l)-1]
		if len(l) > 1 {
			s.lists[li] = l[:len(l)-1]
			continue
		}
		s.lists[li] = nil
		delete(s.index, it)
		s.free = append(s.free, li)
	}
}

// movePostingsLocked re-points the postings of r, the ranking at entry
// index from, to entry index to. Caller holds s.mu.
func (s *Shard) movePostingsLocked(r *rankings.Ranking, from, to int) {
	for _, it := range r.Items {
		l := s.lists[s.index[it]]
		l[postingOf(l, from)].ent = int32(to)
	}
}

// postingOf returns the position of entry ei's posting in l, which
// holds one by the index's invariant.
func postingOf(l []posting, ei int) int {
	for j := range l {
		if l[j].ent == int32(ei) {
			return j
		}
	}
	panic("shard: entry missing from its item's posting list")
}

// Delete removes the ranking with the given id, reporting whether it
// was present. A miss is a pure no-op: the epoch does not move and no
// write-hook record is emitted, so epoch-tagged caches stay valid and
// a WAL never replays a spurious epoch advance. The error (always nil
// on a miss) carries the durability barrier's verdict, as in Insert.
func (s *Shard) Delete(id int64) (bool, error) {
	s.mu.Lock()
	if !s.removeLocked(id) {
		s.mu.Unlock()
		return false, nil
	}
	epoch := s.epoch.Add(1)
	commit := s.logLocked(WriteRecord{Shard: s.id, Op: OpDelete, Epoch: epoch, ID: id})
	due := s.rePivotDueLocked()
	s.mu.Unlock()
	if due {
		s.triggerRePivot()
	}
	if commit != nil {
		return true, commit()
	}
	return true, nil
}

// removeLocked swap-removes id, reporting presence: the last entry
// moves into the hole and its postings are re-pointed. Caller holds
// s.mu.
func (s *Shard) removeLocked(id int64) bool {
	i, ok := s.byID[id]
	if !ok {
		return false
	}
	s.unpostLocked(i, s.entries[i])
	last := len(s.entries) - 1
	if i != last {
		moved := s.entries[last]
		s.movePostingsLocked(moved, last, i)
		s.entries[i] = moved
		s.byID[moved.ID] = i
	}
	s.entries[last] = nil
	s.entries = s.entries[:last]
	delete(s.byID, id)
	return true
}

// logLocked hands one mutation record to the write hook, if any.
// Caller holds s.mu, which is what serializes records into strictly
// increasing epoch order.
func (s *Shard) logLocked(rec WriteRecord) func() error {
	if s.writeHook == nil {
		return nil
	}
	fn := s.writeHook.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(rec)
}

// ApplyInsert is Insert for replay: it applies an upsert that was
// already logged elsewhere (WAL recovery, replication), forces the
// shard epoch to the record's stamp instead of incrementing, and does
// not invoke the write hook.
func (s *Shard) ApplyInsert(r *rankings.Ranking, epoch uint64) {
	s.mu.Lock()
	s.upsertLocked(r)
	s.epoch.Store(epoch)
	due := s.rePivotDueLocked()
	s.mu.Unlock()
	if due {
		s.triggerRePivot()
	}
}

// ApplyDelete is Delete for replay, with ApplyInsert's contract. The
// epoch is stamped even when the id is absent — the record asserts the
// shard reached that epoch — but a miss means the replayed stream and
// the local state have diverged, so presence is reported for the
// caller to check.
func (s *Shard) ApplyDelete(id int64, epoch uint64) bool {
	s.mu.Lock()
	ok := s.removeLocked(id)
	s.epoch.Store(epoch)
	due := s.rePivotDueLocked()
	s.mu.Unlock()
	if due {
		s.triggerRePivot()
	}
	return ok
}

// Restore atomically replaces the shard's entire contents with rs at
// the given epoch — the snapshot-load primitive for recovery and full
// replica syncs. The posting lists are rebuilt; the pivot set is
// dropped and re-chosen in the background once the shard is large
// enough. Rankings must already be position-indexed, of one length and
// routed to this shard; Index.RestoreShard checks.
func (s *Shard) Restore(rs []*rankings.Ranking, epoch uint64) {
	s.mu.Lock()
	n := len(rs)
	s.pivots = nil
	s.entries = append([]*rankings.Ranking(nil), rs...)
	s.byID = make(map[int64]int, n)
	s.index = make(map[rankings.Item]int32)
	s.lists, s.free = nil, nil
	for i, r := range rs {
		s.byID[r.ID] = i
		s.postLocked(i, r)
	}
	s.epoch.Store(epoch)
	due := s.rePivotDueLocked()
	s.mu.Unlock()
	if due {
		s.triggerRePivot()
	}
}

// Get returns the indexed ranking with the given id.
func (s *Shard) Get(id int64) (*rankings.Ranking, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := s.byID[id]; ok {
		return s.entries[i], true
	}
	return nil, false
}

// Len returns the number of indexed rankings.
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Epoch returns the shard's mutation epoch: exactly one increment per
// applied Insert or effective Delete (misses and re-pivots do not
// move it), making it a dense per-shard cursor for caches, WAL records
// and replication.
func (s *Shard) Epoch() uint64 { return s.epoch.Load() }

// Snapshot returns the indexed rankings together with the epoch they
// were read at. Both are captured under a single lock hold, so the
// pair is always mutually consistent: two snapshots carrying the same
// epoch hold exactly the same rankings. The returned slice is private
// to the caller; the rankings themselves are shared and must be
// treated as immutable.
func (s *Shard) Snapshot() ([]*rankings.Ranking, uint64) {
	return s.SnapshotAnd(nil)
}

// SnapshotAnd is Snapshot with a barrier: a non-nil fn runs under the
// same read-lock hold that captured the rankings and epoch, after the
// capture. Because every mutation takes the write lock, anything fn
// does is ordered exactly at the snapshot's epoch — the WAL manager
// rotates the shard's log segment here, so the segment boundary
// coincides with the snapshot cut and every record in earlier segments
// has epoch ≤ the snapshot epoch.
func (s *Shard) SnapshotAnd(fn func()) ([]*rankings.Ranking, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := make([]*rankings.Ranking, len(s.entries))
	copy(rs, s.entries)
	e := s.epoch.Load()
	if fn != nil {
		fn()
	}
	return rs, e
}

// Stats is a point-in-time description of one shard for /statusz.
type Stats struct {
	Size     int    `json:"size"`
	Epoch    uint64 `json:"epoch"`
	Pivots   int    `json:"pivots"`
	RePivots int64  `json:"re_pivots"`
}

// Stats returns the shard's current statistics.
func (s *Shard) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Size:     len(s.entries),
		Epoch:    s.epoch.Load(),
		Pivots:   len(s.pivots),
		RePivots: s.rePivots.Load(),
	}
}

// A shard chooses pivots once, in the background, when it reaches
// minRePivotSize entries without any: after a fill, or after a Restore
// dropped them. Churn never re-chooses them.
const minRePivotSize = 16

func (s *Shard) rePivotDueLocked() bool {
	return len(s.entries) >= minRePivotSize && len(s.pivots) == 0
}

// triggerRePivot starts a background selection unless one is already
// running.
func (s *Shard) triggerRePivot() {
	if s.repivoting.CompareAndSwap(false, true) {
		go s.rePivot()
	}
}

// rePivot chooses the pivot set: snapshot the members under RLock,
// choose pivots (error-bounded sampled selection, see pivot.go) without
// holding any lock, then install them under the write lock.
func (s *Shard) rePivot() {
	defer s.repivoting.Store(false)
	s.mu.RLock()
	n := len(s.entries)
	if n == 0 {
		s.mu.RUnlock()
		return
	}
	members := append([]*rankings.Ranking(nil), s.entries...)
	round := s.rePivots.Load()
	s.mu.RUnlock()

	rng := rand.New(rand.NewSource(s.seed + (round+1)*1_000_003 + int64(n)))
	pivots := selectPivots(members, s.maxPivots, rng)

	s.mu.Lock()
	s.pivots = pivots
	s.rePivots.Add(1)
	// A re-pivot deliberately does NOT bump the epoch: it changes no
	// result set (equal epochs ⇒ equal contents still holds), and the
	// epoch must stay a dense one-per-mutation cursor so WAL replay and
	// replicas — which re-pivot on their own schedule — never drift.
	s.mu.Unlock()
}

// sweep answers every query of a batch against this shard under one
// read-lock hold. Hits are appended to so.neighbors with query qi's
// segment recorded in so.segs[2qi], so.segs[2qi+1]; filter accounting
// accumulates into so.delta, which the caller hands in zeroed. Steady
// state allocates nothing: every buffer lives in so and is grown to its
// high-water mark once.
func (s *Shard) sweep(qs []Query, so *shardOut) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.entries)
	so.size = n
	so.segs = growCap(so.segs, 2*len(qs))
	so.neighbors = so.neighbors[:0]
	if n == 0 {
		clear(so.segs)
		return
	}
	// Pre-size the hit arena from the shard's cardinality: range sweeps
	// at serving thresholds rarely return more than a small fraction of
	// the shard per query.
	if cap(so.neighbors) == 0 {
		so.neighbors = make([]Neighbor, 0, min(len(qs)*(1+n/16), len(qs)*n, 4096))
	}
	// score is all zeros between queries (answer clears what it set), so
	// growing it within its capacity needs no clearing either.
	so.score = growCap(so.score, n)
	so.touched = growCap(so.touched, n+1)
	for qi := range qs {
		start := int32(len(so.neighbors))
		s.answer(&qs[qi], so)
		so.segs[2*qi], so.segs[2*qi+1] = start, int32(len(so.neighbors))
	}
}

// answer appends one query's hits on this shard to so.neighbors. It
// walks the query's k posting lists, adding each posting's share
// 2(k − max(rank_q, rank_e)) to its entry's score, so afterwards every
// touched entry is at the exact distance k(k+1) − score and every
// untouched one at k(k+1). Untouched entries are read only when they
// can be hits: at a range threshold of k(k+1) (θ = 1), or when fewer
// than q.KNN entries were touched, where the heap keeps the smallest
// ids among them — they all tie at k(k+1), above every touched entry,
// which is the (dist, id) order.
//
// Ledger: Generated counts the shard's entries (the excluded one
// aside); each is Verified when the accumulation gave its exact
// distance or the sweep read it as a possible hit, and PrunedPrefix
// when it sits on none of the query's lists and was never read.
func (s *Shard) answer(q *Query, so *shardOut) {
	n := len(s.entries)
	k := q.R.K()
	maxF := rankings.MaxFootrule(k)
	score, touched := so.score, so.touched // lengths n and n+1, set by sweep
	nt := 0
	for rq, it := range q.R.Items {
		li, ok := s.index[it]
		if !ok {
			continue
		}
		for _, p := range s.lists[li] {
			// Note every entry and keep it only on its first touch: a
			// branch around the store mispredicts on each new entry.
			sc := score[p.ent]
			touched[nt] = p.ent
			if sc == 0 {
				nt++
			}
			score[p.ent] = sc + 2*(k-max(rq, int(p.rank)))
		}
	}
	touched = touched[:nt]

	exclIdx := s.exclIdx(q)
	generated, verified := n, len(touched)
	if exclIdx >= 0 {
		generated--
		if score[exclIdx] != 0 {
			verified--
		}
	}
	readUntouched := q.MaxDist >= maxF
	if q.KNN > 0 {
		readUntouched = verified < q.KNN
	}
	d := &so.delta
	d.Generated += int64(generated)
	if readUntouched {
		d.Verified += int64(generated)
	} else {
		d.Verified += int64(verified)
		d.PrunedPrefix += int64(generated - verified)
	}

	start := len(so.neighbors)
	if q.KNN > 0 {
		h := &so.heap
		h.reset(q.KNN)
		if readUntouched {
			for ei, sc := range score {
				if sc == 0 && ei != exclIdx {
					h.push(Neighbor{ID: s.entries[ei].ID, Dist: maxF})
				}
			}
		}
		for _, ei := range touched {
			dist := maxF - score[ei]
			score[ei] = 0
			// Rejecting on distance first spares the id load, a cache miss
			// per entry; an equal distance may still win on a smaller id.
			if int(ei) == exclIdx || h.full() && dist > h.worst() {
				continue
			}
			h.push(Neighbor{ID: s.entries[ei].ID, Dist: dist})
		}
		so.neighbors = h.appendSorted(so.neighbors)
	} else {
		if readUntouched {
			for ei, sc := range score {
				if sc == 0 && ei != exclIdx {
					so.neighbors = append(so.neighbors, Neighbor{ID: s.entries[ei].ID, Dist: maxF})
				}
			}
		}
		for _, ei := range touched {
			dist := maxF - score[ei]
			score[ei] = 0
			if dist <= q.MaxDist && int(ei) != exclIdx {
				so.neighbors = append(so.neighbors, Neighbor{ID: s.entries[ei].ID, Dist: dist})
			}
		}
	}
	d.Emitted += int64(len(so.neighbors) - start)
}

// exclIdx resolves a query's Exclude id to an entry index with one map
// probe, replacing a per-entry id comparison in the scan. Must be
// called with s.mu held.
func (s *Shard) exclIdx(q *Query) int {
	if i, ok := s.byID[q.Exclude]; ok {
		return i
	}
	return -1
}

// growCap returns s resliced to length n, reallocating only when the
// high-water mark grows. Contents are whatever the backing array held.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *Shard) String() string {
	st := s.Stats()
	return fmt.Sprintf("shard{size=%d epoch=%d pivots=%d rePivots=%d}",
		st.Size, st.Epoch, st.Pivots, st.RePivots)
}
