// Package shard implements the online serving index: a sharded,
// dynamically updatable metric index over top-k rankings. It keeps
// per-shard LAESA-style pivot tables that absorb Insert/Delete traffic
// under an RWMutex, answer range and kNN queries with a 128-bit
// item-signature prefilter followed by triangle-inequality pruning, and
// re-pivot themselves in the background when churn (or a collapsed
// prune rate) degrades pruning power — the serving-side counterpart of
// the error-bounded pivot selection literature: pruning only stays
// effective while the pivots still describe the data.
//
// Every mutation bumps the owning shard's epoch by exactly one, so the
// per-shard epoch is a dense cursor over that shard's mutation history:
// epoch E names the state after the E-th mutation. Epochs order nothing
// across shards; they exist so snapshots are verifiable (same epoch ⇒
// same contents), so query caches can be invalidated per shard without
// a global generation counter, and so a write-ahead log or replication
// stream can address "everything after epoch E" with a contiguity
// check. Background re-pivots deliberately do NOT move the epoch: a
// re-pivot changes no result set, and replicas re-pivot independently.
package shard

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin/internal/filters"
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

// entry is one indexed ranking with its precomputed pivot distances.
type entry struct {
	r  *rankings.Ranking
	pd []int32 // pd[p] = Footrule(r, pivots[p])
}

// maxSignatureK bounds the ranking length the signature prefilter is
// applied to: beyond 64 items the 128-bit signature can no longer
// separate item sets (popcount saturates and the collision corrections
// k − pop dwarf the shared-bit count), and keeping k ≤ 64 also lets
// overlap bounds live in one byte per (entry, query) cell of the fused
// sweep.
const maxSignatureK = 64

// RePivotEvent describes one completed background re-pivot pass, as
// delivered to the hook installed with Index.SetRePivotHook.
type RePivotEvent struct {
	Shard  int           // shard ordinal within its Index
	Size   int           // entries at snapshot time
	Pivots int           // pivot-table width chosen
	Churn  int           // mutations absorbed since the previous pivot set
	Dur    time.Duration // wall time of the rebuild
}

// RePivotHook observes completed re-pivots. It runs on the re-pivot
// goroutine after all locks are released, so it may itself query the
// index, but it should return quickly — the shard cannot start its
// next rebuild until the hook returns.
type RePivotHook func(RePivotEvent)

// Op tags one logged mutation.
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
	numPivots int
	seed      int64
	id        int                          // ordinal within the owning Index
	hook      *atomic.Pointer[RePivotHook] // owning Index's re-pivot hook; nil standalone
	writeHook *atomic.Pointer[WriteHook]   // owning Index's write hook; nil standalone

	mu      sync.RWMutex
	pivots  []*rankings.Ranking
	entries []entry
	// sigs/pops mirror entries index-for-index with each ranking's
	// 128-bit item signature and its popcount: the fused sweep's phase A
	// touches only these two dense arrays (17 bytes per entry), not the
	// entry structs, so the signature pass stays cache-resident.
	sigs  []rankings.Sig
	pops  []uint8
	byID  map[int64]int
	churn int // mutations since the pivot set was last chosen

	// epoch is written under mu and read either under mu (consistent
	// snapshots) or raw (cache tags, which only need monotonicity).
	epoch atomic.Uint64

	// rePivots counts completed re-pivot passes; repivoting serializes
	// background rebuilds. scanned/pruned track pruning power since the
	// last re-pivot and are updated lock-free from search sweeps.
	rePivots   atomic.Int64
	repivoting atomic.Bool
	scanned    atomic.Int64
	pruned     atomic.Int64
}

func newShard(numPivots int, seed int64) *Shard {
	return &Shard{
		numPivots: numPivots,
		seed:      seed,
		byID:      make(map[int64]int),
	}
}

// pivotRow computes a ranking's distances to the given pivots.
func pivotRow(r *rankings.Ranking, pivots []*rankings.Ranking) []int32 {
	if len(pivots) == 0 {
		return nil
	}
	row := make([]int32, len(pivots))
	for p, piv := range pivots {
		row[p] = int32(rankings.Footrule(r, piv))
	}
	return row
}

// Insert adds r to the shard, replacing any previous ranking with the
// same id (upsert). The caller must have built r's position index
// (Ranking.Index) before handing it over; Index-level Insert does.
// With a write hook installed, a non-nil error means the mutation is
// applied in memory but its durability barrier failed — the write must
// not be acknowledged.
func (s *Shard) Insert(r *rankings.Ranking) error {
	sig, pop := r.Signature()
	s.mu.Lock()
	s.upsertLocked(r, sig, uint8(pop))
	s.churn++
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
func (s *Shard) upsertLocked(r *rankings.Ranking, sig rankings.Sig, pop uint8) {
	e := entry{r: r, pd: pivotRow(r, s.pivots)}
	if i, ok := s.byID[r.ID]; ok {
		s.entries[i] = e
		s.sigs[i] = sig
		s.pops[i] = pop
	} else {
		s.byID[r.ID] = len(s.entries)
		s.entries = append(s.entries, e)
		s.sigs = append(s.sigs, sig)
		s.pops = append(s.pops, pop)
	}
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
	s.churn++
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

// removeLocked swap-removes id, reporting presence. Caller holds s.mu.
func (s *Shard) removeLocked(id int64) bool {
	i, ok := s.byID[id]
	if !ok {
		return false
	}
	last := len(s.entries) - 1
	moved := s.entries[last]
	s.entries[last] = entry{}
	s.entries = s.entries[:last]
	delete(s.byID, id)
	if i != last {
		s.entries[i] = moved
		s.sigs[i] = s.sigs[last]
		s.pops[i] = s.pops[last]
		s.byID[moved.r.ID] = i
	}
	s.sigs = s.sigs[:last]
	s.pops = s.pops[:last]
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
	sig, pop := r.Signature()
	s.mu.Lock()
	s.upsertLocked(r, sig, uint8(pop))
	s.churn++
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
	if ok {
		s.churn++
	}
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
// replica syncs. The pivot table is dropped; a background re-pivot
// rebuilds it once the shard is large enough. Rankings must already be
// position-indexed and routed to this shard; Index.RestoreShard checks.
func (s *Shard) Restore(rs []*rankings.Ranking, epoch uint64) {
	s.mu.Lock()
	n := len(rs)
	s.pivots = nil
	s.entries = make([]entry, n)
	s.sigs = make([]rankings.Sig, n)
	s.pops = make([]uint8, n)
	s.byID = make(map[int64]int, n)
	for i, r := range rs {
		sig, pop := r.Signature()
		s.entries[i] = entry{r: r}
		s.sigs[i] = sig
		s.pops[i] = uint8(pop)
		s.byID[r.ID] = i
	}
	s.churn = 0
	s.scanned.Store(0)
	s.pruned.Store(0)
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
		return s.entries[i].r, true
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
	for i := range s.entries {
		rs[i] = s.entries[i].r
	}
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
	Churn    int    `json:"churn"`
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
		Churn:    s.churn,
		RePivots: s.rePivots.Load(),
	}
}

// Re-pivot policy. Below minRePivotSize a linear scan is cheaper than
// any pivot table, so tiny shards never re-pivot. Otherwise a rebuild
// is due when the pivot set has never been chosen, when churn since the
// last selection exceeds half the population, or when the observed
// prune rate has collapsed (lots of scanning, almost nothing pruned —
// the pivots no longer describe the data).
const (
	minRePivotSize = 16
	minPruneRate   = 0.05
)

func (s *Shard) rePivotDueLocked() bool {
	n := len(s.entries)
	if n < minRePivotSize {
		return false
	}
	if len(s.pivots) == 0 {
		return true
	}
	return s.churn*2 >= n
}

// notePruning folds one sweep's pruning observations in (pruned counts
// signature and triangle rejections together — a sweep that rejects
// almost everything on signatures alone has not lost pruning power) and
// reports whether the prune rate collapsed badly enough to warrant a
// re-pivot.
func (s *Shard) notePruning(scanned, pruned int64) bool {
	if scanned == 0 {
		return false
	}
	sc := s.scanned.Add(scanned)
	pr := s.pruned.Add(pruned)
	s.mu.RLock()
	n, havePivots := len(s.entries), len(s.pivots) > 0
	s.mu.RUnlock()
	if !havePivots || n < minRePivotSize {
		return false
	}
	// Only judge the rate after several full sweeps' worth of evidence.
	if sc < int64(8*n) {
		return false
	}
	return float64(pr) < minPruneRate*float64(sc)
}

// triggerRePivot starts a background re-pivot unless one is already
// running.
func (s *Shard) triggerRePivot() {
	if s.repivoting.CompareAndSwap(false, true) {
		go s.rePivot()
	}
}

// rePivot rebuilds the pivot table: snapshot the members under RLock,
// choose fresh pivots (error-bounded sampled selection, see pivot.go)
// and compute the distance table without holding any lock, then apply
// under the write lock — recomputing rows only for rankings that were
// inserted or replaced while the rebuild ran.
func (s *Shard) rePivot() {
	defer s.repivoting.Store(false)
	began := time.Now()
	s.mu.RLock()
	n := len(s.entries)
	if n == 0 {
		s.mu.RUnlock()
		return
	}
	members := make([]*rankings.Ranking, n)
	for i := range s.entries {
		members[i] = s.entries[i].r
	}
	round := s.rePivots.Load()
	s.mu.RUnlock()

	rng := rand.New(rand.NewSource(s.seed + (round+1)*1_000_003 + int64(n)))
	pivots := selectPivots(members, s.numPivots, rng)
	// Rows are keyed by ranking pointer, not id: an id re-inserted with
	// different items during the rebuild must not inherit a stale row.
	rows := make(map[*rankings.Ranking][]int32, n)
	for _, r := range members {
		rows[r] = pivotRow(r, pivots)
	}

	s.mu.Lock()
	s.pivots = pivots
	for i := range s.entries {
		e := &s.entries[i]
		if row, ok := rows[e.r]; ok {
			e.pd = row
		} else {
			e.pd = pivotRow(e.r, pivots)
		}
	}
	churn := s.churn
	s.churn = 0
	s.scanned.Store(0)
	s.pruned.Store(0)
	s.rePivots.Add(1)
	// A re-pivot deliberately does NOT bump the epoch: it changes no
	// result set (equal epochs ⇒ equal contents still holds), and the
	// epoch must stay a dense one-per-mutation cursor so WAL replay and
	// replicas — which re-pivot on their own schedule — never drift.
	s.mu.Unlock()

	if s.hook != nil {
		if fn := s.hook.Load(); fn != nil {
			(*fn)(RePivotEvent{
				Shard:  s.id,
				Size:   n,
				Pivots: len(pivots),
				Churn:  churn,
				Dur:    time.Since(began),
			})
		}
	}
}

// sweepPhase1 is the first half of the fused multi-query sweep: under
// one RLock acquisition it makes ONE pass over the shard's signature
// arrays and upper-bounds every (entry, query) item overlap with an
// AND+popcount (phase A), computes the query-to-pivot rows, answers
// every RANGE query completely, and — when twoPhase is set because the
// batch contains kNN queries — runs a cheap bound PROBE per kNN query:
// verify just the top-q.KNN candidates by overlap bound, whose
// distances the Batch merges across shards into a global kNN cutoff.
//
// With twoPhase set the CALLER already holds the shard RLock — the
// Batch takes all shards' locks in ascending order on its dispatching
// goroutine, since taking them concurrently here could deadlock two
// Batches against queued writers — and it is STILL HELD when
// sweepPhase1 returns: the caller must follow up with sweepPhase2,
// which finishes the kNN queries against the global bounds and
// releases the lock. Holding the lock across the barrier is what lets
// phase 2 trust the overlap-bound matrix and candidate indexes computed
// here. Without twoPhase (range-only batches) sweepPhase1 takes the
// lock itself and releases it before returning.
//
// qsigs/qpops carry the queries' signatures (parallel to qs). The
// caller must hand so in with so.delta zeroed; hits are appended to
// so.neighbors with query qi's segment recorded in
// so.segs[2qi], so.segs[2qi+1]. Filter accounting accumulates into
// so.delta (Generated = PrunedSignature + PrunedTriangle + Verified;
// Emitted counts hits); the probe pass is deliberately unledgered —
// every entry it touches is re-examined and accounted exactly once by
// the authoritative phase-2 sweep. Steady state allocates nothing:
// every buffer lives in so and is grown to its high-water mark once.
func (s *Shard) sweepPhase1(qs []Query, qsigs []rankings.Sig, qpops []uint8, so *shardOut, twoPhase bool) {
	if !twoPhase {
		s.mu.RLock()
	}
	n := len(s.entries)
	B := len(qs)
	P := len(s.pivots)
	so.size = n
	so.segs = growCap(so.segs, 2*B)[:2*B]
	for i := range so.segs {
		so.segs[i] = 0
	}
	so.pseg = growCap(so.pseg, 2*B)[:2*B]
	for i := range so.pseg {
		so.pseg[i] = 0
	}
	so.neighbors = so.neighbors[:0]
	so.probe = so.probe[:0]
	if n == 0 || B == 0 {
		if !twoPhase {
			s.mu.RUnlock()
		}
		return
	}
	k := qs[0].R.K() // the index holds one k; checked on entry

	// Pre-size the hit arena from the shard's cardinality: range sweeps
	// at serving thresholds rarely return more than a small fraction of
	// the shard per query.
	if cap(so.neighbors) == 0 {
		hint := B * (1 + n/16)
		if hint > B*n {
			hint = B * n
		}
		if hint > 4096 {
			hint = 4096
		}
		so.neighbors = make([]Neighbor, 0, hint)
	}

	// Phase A: the fused signature pass. One sweep over the dense
	// sigs/pops arrays fills the query-major overlap-bound matrix
	// so.ob[qi*n+ei] = upper bound on |entry ei ∩ query qi|
	// (filters.OverlapUpperBound inlined over the cached columns).
	sigUsable := k <= maxSignatureK
	if sigUsable {
		so.ob = growCap(so.ob, B*n)[:B*n]
		for ei := 0; ei < n; ei++ {
			sig := s.sigs[ei]
			pop := int(s.pops[ei])
			for qi := 0; qi < B; qi++ {
				shared := bits.OnesCount64(sig.Lo&qsigs[qi].Lo) +
					bits.OnesCount64(sig.Hi&qsigs[qi].Hi)
				ub := shared + k - pop
				if alt := shared + k - int(qpops[qi]); alt < ub {
					ub = alt
				}
				if ub > k {
					ub = k
				}
				if ub < 0 {
					ub = 0
				}
				so.ob[qi*n+ei] = uint8(ub)
			}
		}
	}

	// Query-to-pivot distance rows, query-major.
	so.qd = growCap(so.qd, B*P)[:B*P]
	for qi := 0; qi < B; qi++ {
		row := so.qd[qi*P : qi*P+P]
		for p := range s.pivots {
			row[p] = int32(rankings.Footrule(qs[qi].R, s.pivots[p]))
		}
	}

	// Phase B (ranges) / probe (kNN): answer each query off its
	// overlap-bound row.
	for qi := range qs {
		q := &qs[qi]
		exclIdx := s.exclIdx(q)
		if q.KNN > 0 {
			start := int32(len(so.probe))
			s.knnProbe(q, qi, n, k, sigUsable, exclIdx, so)
			so.pseg[2*qi], so.pseg[2*qi+1] = start, int32(len(so.probe))
		} else {
			start := int32(len(so.neighbors))
			s.rangeInto(q, qi, n, k, P, sigUsable, exclIdx, so)
			so.segs[2*qi], so.segs[2*qi+1] = start, int32(len(so.neighbors))
		}
	}
	if twoPhase {
		return // the caller's s.mu.RLock stays held; sweepPhase2 releases it
	}
	s.mu.RUnlock()
	d := &so.delta
	if s.notePruning(d.Generated, d.PrunedSignature+d.PrunedTriangle) {
		s.triggerRePivot()
	}
}

// sweepPhase2 finishes a two-phase sweep: with the RLock the Batch took
// before sweepPhase1 still held, it answers every kNN query with the global distance
// cutoff gb[qi] the Batch derived from all shards' probes, then
// releases the lock. gb is admissible — at least q.KNN indexed
// rankings were verified at or below it — so a candidate whose
// signature lower bound exceeds it can be discarded before the heap is
// even full, which is what turns the per-shard kNN scan from
// verify-almost-everything into a bulk signature reject.
func (s *Shard) sweepPhase2(qs []Query, gb []int, so *shardOut) {
	n := len(s.entries)
	P := len(s.pivots)
	if n > 0 && len(qs) > 0 {
		k := qs[0].R.K()
		sigUsable := k <= maxSignatureK
		for qi := range qs {
			q := &qs[qi]
			if q.KNN <= 0 {
				continue
			}
			exclIdx := s.exclIdx(q)
			start := int32(len(so.neighbors))
			s.knnInto(q, qi, n, k, P, sigUsable, exclIdx, gb[qi], so)
			so.segs[2*qi], so.segs[2*qi+1] = start, int32(len(so.neighbors))
		}
	}
	s.mu.RUnlock()
	d := &so.delta
	if s.notePruning(d.Generated, d.PrunedSignature+d.PrunedTriangle) {
		s.triggerRePivot()
	}
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

// rangeInto scans one query's overlap-bound row for rankings within
// q.MaxDist. The signature reject is a single byte compare per entry
// (ob < minOverlap ⟺ the admissible Footrule lower bound exceeds
// q.MaxDist — MinOverlap is the exact integer inverse of
// MinDistForOverlap); survivors fall through to the per-pivot triangle
// bound and the Footrule kernel.
func (s *Shard) rangeInto(q *Query, qi, n, k, P int, sigUsable bool, exclIdx int, so *shardOut) {
	d := &so.delta
	d.Generated += int64(n)
	if exclIdx >= 0 {
		d.Generated--
	}
	minOv := uint8(0)
	var obRow []uint8
	if sigUsable {
		minOv = uint8(filters.MinOverlap(q.MaxDist, k))
		obRow = so.ob[qi*n : qi*n+n]
	}
	qd := so.qd[qi*P : qi*P+P]
	for ei := 0; ei < n; ei++ {
		if ei == exclIdx {
			continue
		}
		if obRow != nil && obRow[ei] < minOv {
			d.PrunedSignature++
			continue
		}
		e := &s.entries[ei]
		pruned := false
		for p := 0; p < P; p++ {
			if filters.TrianglePrune(int(qd[p]), int(e.pd[p]), q.MaxDist) {
				pruned = true
				break
			}
		}
		if pruned {
			d.PrunedTriangle++
			continue
		}
		d.Verified++
		if dist, ok := rankings.FootruleWithin(q.R, e.r, q.MaxDist); ok {
			d.Emitted++
			so.neighbors = append(so.neighbors, Neighbor{ID: e.r.ID, Dist: dist})
		}
	}
}

// orderByOverlap fills so.cand with entry indexes in descending
// overlap-bound order via a stable counting sort over the query's byte
// row (ob ≤ k ≤ maxSignatureK fits the fixed histogram).
func orderByOverlap(obRow []uint8, k int, so *shardOut) {
	counts := &so.counts
	for o := 0; o <= k; o++ {
		counts[o] = 0
	}
	for _, o := range obRow {
		counts[o]++
	}
	run := int32(0)
	for o := k; o >= 0; o-- {
		c := counts[o]
		counts[o] = run
		run += c
	}
	so.cand = growCap(so.cand, len(obRow))[:len(obRow)]
	for ei, o := range obRow {
		so.cand[counts[o]] = int32(ei)
		counts[o]++
	}
}

// knnProbe verifies just enough candidates to bound one kNN query: the
// top q.KNN entries by overlap bound (the likeliest true neighbors),
// appending their exact distances to so.probe. The Batch merges probes
// from every shard into a global cutoff for sweepPhase2. The probe
// touches no filter counters — phase 2 re-examines and accounts every
// entry — and is skipped for shards smaller than q.KNN, whose probe
// could only repeat phase 2's work without tightening the bound.
func (s *Shard) knnProbe(q *Query, qi, n, k int, sigUsable bool, exclIdx int, so *shardOut) {
	if !sigUsable || n <= q.KNN {
		return
	}
	obRow := so.ob[qi*n : qi*n+n]
	orderByOverlap(obRow, k, so)
	maxDist := rankings.MaxFootrule(k)
	found := 0
	for ci := 0; ci < n && found < q.KNN; ci++ {
		ei := int(so.cand[ci])
		if ei == exclIdx {
			continue
		}
		e := &s.entries[ei]
		if dist, ok := rankings.FootruleWithin(q.R, e.r, maxDist); ok {
			so.probe = append(so.probe, Neighbor{ID: e.r.ID, Dist: dist})
			found++
		}
	}
}

// knnInto scans one query's candidates for the q.KNN nearest rankings.
// With signatures usable, candidates are visited in descending
// overlap-bound order (a stable counting sort over the byte row): the
// likeliest neighbors fill and tighten the bounded max-heap first, and
// as soon as the signature lower bound (k−ō)(k−ō+1) of the current
// overlap class exceeds the tighter of the heap's worst kept distance
// and the global probe cutoff gb, every remaining candidate — whose
// bound can only be lower — is rejected in bulk without touching a
// single entry. gb must be admissible (≥ the true global q.KNN-th
// distance under the (dist, id) tie order); rankings.MaxFootrule(k)
// is always a safe value.
func (s *Shard) knnInto(q *Query, qi, n, k, P int, sigUsable bool, exclIdx, gb int, so *shardOut) {
	d := &so.delta
	d.Generated += int64(n)
	if exclIdx >= 0 {
		d.Generated--
	}
	h := &so.heap
	h.reset(q.KNN)
	qd := so.qd[qi*P : qi*P+P]

	if !sigUsable {
		for ei := 0; ei < n; ei++ {
			if ei == exclIdx {
				continue
			}
			bound := gb
			if h.full() {
				// A ranking at the worst kept distance can still displace
				// the root when its id is smaller (the documented
				// (dist, id) tie order), so the bound must admit equality.
				if w := h.worst(); w < bound {
					bound = w
				}
			}
			e := &s.entries[ei]
			pruned := false
			for p := 0; p < P; p++ {
				if filters.TrianglePrune(int(qd[p]), int(e.pd[p]), bound) {
					pruned = true
					break
				}
			}
			if pruned {
				d.PrunedTriangle++
				continue
			}
			d.Verified++
			if dist, ok := rankings.FootruleWithin(q.R, e.r, bound); ok {
				d.Emitted++
				h.push(Neighbor{ID: e.r.ID, Dist: dist})
			}
		}
		so.neighbors = h.appendSorted(so.neighbors)
		return
	}

	obRow := so.ob[qi*n : qi*n+n]
	orderByOverlap(obRow, k, so)

	exclSeen := exclIdx < 0
	for ci := 0; ci < n; ci++ {
		ei := int(so.cand[ci])
		if ei == exclIdx {
			exclSeen = true
			continue
		}
		bound := gb
		if h.full() {
			if w := h.worst(); w < bound { // must admit equality; see above
				bound = w
			}
		}
		o := int(obRow[ei])
		m := k - o
		if m*(m+1) > bound {
			// Every remaining candidate has an overlap bound ≤ ō, so its
			// Footrule lower bound is ≥ (k−ō)(k−ō+1) > bound: reject the
			// whole tail at once.
			rem := int64(n - ci)
			if !exclSeen {
				rem--
			}
			d.PrunedSignature += rem
			break
		}
		e := &s.entries[ei]
		pruned := false
		for p := 0; p < P; p++ {
			if filters.TrianglePrune(int(qd[p]), int(e.pd[p]), bound) {
				pruned = true
				break
			}
		}
		if pruned {
			d.PrunedTriangle++
			continue
		}
		d.Verified++
		if dist, ok := rankings.FootruleWithin(q.R, e.r, bound); ok {
			d.Emitted++
			h.push(Neighbor{ID: e.r.ID, Dist: dist})
		}
	}
	so.neighbors = h.appendSorted(so.neighbors)
}

// growCap returns s with capacity at least n (contents unspecified),
// reallocating only when the high-water mark grows.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *Shard) String() string {
	st := s.Stats()
	return fmt.Sprintf("shard{size=%d epoch=%d pivots=%d churn=%d rePivots=%d}",
		st.Size, st.Epoch, st.Pivots, st.Churn, st.RePivots)
}
