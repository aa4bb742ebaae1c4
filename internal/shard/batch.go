package shard

import (
	"fmt"
	"slices"
	"sync"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
)

// shardOut is one shard's slot in a Batch arena: the sweep's hit
// output, its filter accounting, and every piece of per-sweep scratch
// the shard needs, so a steady-state sweep allocates nothing. Buffers
// grow to their high-water mark once and are reused afterwards.
type shardOut struct {
	size      int        // entries the sweep saw, for its trace span
	neighbors []Neighbor // all hits of the sweep, flat
	segs      []int32    // per-query [start,end) pairs into neighbors (2 per query)
	delta     obs.FilterDelta

	// kNN probe output (sweepPhase1): per-query verified candidate
	// distances the Batch merges into the global kNN cutoff.
	probe []Neighbor
	pseg  []int32 // per-query [start,end) pairs into probe (2 per query)

	// Sweep scratch (see Shard.sweepPhase1).
	qd     []int32                  // query-to-pivot distances, query-major
	ob     []uint8                  // overlap-bound matrix, query-major
	cand   []int32                  // kNN candidate order (counting sort)
	counts [maxSignatureK + 2]int32 // counting-sort histogram (ob ≤ k ≤ maxSignatureK)
	heap   resultHeap
}

// Batch is a reusable query-execution arena bound to one Index: it owns
// the per-shard sweep scratch, the fan-out plumbing and the merged
// result buffer, so that steady-state queries through SearchInto /
// KNNInto / SearchBatchInto allocate nothing at all.
//
// A Batch is NOT safe for concurrent use, and every result slice it
// returns aliases its arena — valid only until the next call on the
// same Batch. Callers that retain results (caches, response buffers
// outliving the next query) must copy them; the Index-level Search /
// KNN / SearchBatch wrappers do exactly that.
type Batch struct {
	x    *Index
	qs   []Query
	span *obs.Span

	qsig []rankings.Sig
	qpop []uint8

	// twoPhase is set per call when the batch contains kNN queries: the
	// dispatching goroutine then takes every shard's RLock (in ascending
	// shard order) before the fan-out, the shard goroutines pause on wg2
	// after their phase-1 sweep (the locks still held) until the main
	// goroutine has merged the per-shard probes into the global cutoffs
	// gb, and finish with phase 2, which releases each lock. Range-only
	// batches complete in phase 1 alone, locking per shard in the worker.
	twoPhase bool
	gb       []int      // per-query global kNN distance cutoff
	pscratch []Neighbor // probe-merge scratch, one query at a time

	wg    sync.WaitGroup // shard goroutines: phase 1 done
	wg2   sync.WaitGroup // main goroutine: global bounds ready
	wg3   sync.WaitGroup // shard goroutines: phase 2 done
	funcs []func()       // pre-bound per-shard sweeps: `go f()` allocates nothing
	so    []shardOut

	one [1]Query     // backing for SearchInto/KNNInto
	res []Neighbor   // merged results, flat
	out [][]Neighbor // per-query views into res
}

// NewBatch creates an execution arena for queries against x. The Batch
// is cheap to keep for the life of the index (the server's request
// batcher owns exactly one); short-lived callers can instead use the
// Index's Search/KNN/SearchBatch, which draw Batches from a pool.
func (x *Index) NewBatch() *Batch {
	b := &Batch{x: x, so: make([]shardOut, len(x.shards))}
	b.funcs = make([]func(), len(x.shards))
	for i := range b.funcs {
		i := i
		b.funcs[i] = func() {
			b.runShard(i)
			// Latch twoPhase before Done: the instant the last shard
			// signals, the main goroutine may move on to the next batch
			// and overwrite the field.
			two := b.twoPhase
			b.wg.Done()
			if two {
				b.wg2.Wait() // global bounds ready
				b.runShard2(i)
				b.wg3.Done()
			}
		}
	}
	return b
}

func (b *Batch) runShard(i int) {
	s := b.x.shards[i]
	so := &b.so[i]
	if b.span != nil {
		// The size comes from the sweep, not s.Len(): under twoPhase this
		// Batch already holds s.mu.RLock, and a second RLock behind a
		// queued writer would never be granted.
		t := b.span.StartTask(b.x.spanNames[i])
		s.sweepPhase1(b.qs, b.qsig, b.qpop, so, b.twoPhase)
		t.SetInt("size", int64(so.size))
		t.SetInt("hits", int64(len(so.neighbors)))
		t.End()
	} else {
		s.sweepPhase1(b.qs, b.qsig, b.qpop, so, b.twoPhase)
	}
}

func (b *Batch) runShard2(i int) {
	s := b.x.shards[i]
	so := &b.so[i]
	if b.span != nil {
		t := b.span.StartTask(b.x.spanNames[i], obs.Int("phase", 2))
		s.sweepPhase2(b.qs, b.gb, so)
		t.SetInt("hits", int64(len(so.neighbors)))
		t.End()
	} else {
		s.sweepPhase2(b.qs, b.gb, so)
	}
}

// globalBounds merges the per-shard kNN probes into b.gb: for each kNN
// query, the q.KNN-th smallest probed distance under the (dist, id)
// order — an admissible cutoff, since at least q.KNN indexed rankings
// were verified at or below it. Queries whose probes came up short
// (tiny shards, oversized k) fall back to MaxFootrule, which rejects
// nothing.
func (b *Batch) globalBounds(qs []Query) {
	b.gb = growCap(b.gb, len(qs))
	for qi := range qs {
		q := &qs[qi]
		if q.KNN <= 0 {
			b.gb[qi] = 0
			continue
		}
		b.pscratch = b.pscratch[:0]
		for si := range b.so {
			so := &b.so[si]
			b.pscratch = append(b.pscratch, so.probe[so.pseg[2*qi]:so.pseg[2*qi+1]]...)
		}
		if len(b.pscratch) >= q.KNN {
			slices.SortFunc(b.pscratch, cmpNeighbor)
			b.gb[qi] = b.pscratch[q.KNN-1].Dist
		} else {
			b.gb[qi] = rankings.MaxFootrule(q.R.K())
		}
	}
}

// SearchBatchInto answers a batch of queries in one fan-out sweep:
// every shard is visited exactly once (one RLock, all queries, one
// fused signature pass), shards run concurrently, and per-shard partial
// results are merged per query into the arena. Batches containing kNN
// queries sweep in two phases with a barrier between them: the shards'
// probe results are merged into a global distance cutoff that lets
// every shard bulk-reject the candidates a purely local heap bound
// would have verified. The span, when non-nil, receives task children
// per shard (two per shard for two-phase sweeps).
//
// The returned slices alias the Batch arena and are valid only until
// the next call on b. Queries' rankings get their position index built
// as a side effect.
func (b *Batch) SearchBatchInto(qs []Query, span *obs.Span) ([][]Neighbor, error) {
	hasKNN := false
	for i := range qs {
		if err := b.x.checkQuery(qs[i].R); err != nil {
			return nil, err
		}
		// Index once, before the fan-out shares the query across
		// goroutines (Ranking.Index is not concurrency-safe).
		qs[i].R.Index()
		if qs[i].KNN > 0 {
			hasKNN = true
		}
	}
	b.qsig = growCap(b.qsig, len(qs))
	b.qpop = growCap(b.qpop, len(qs))
	for i := range qs {
		sig, pop := qs[i].R.Signature()
		b.qsig[i] = sig
		b.qpop[i] = uint8(pop)
	}

	b.qs, b.span, b.twoPhase = qs, span, hasKNN
	b.wg.Add(len(b.funcs))
	if hasKNN {
		b.wg2.Add(1)
		b.wg3.Add(len(b.funcs))
		// A two-phase sweep holds every shard's RLock across the
		// global-bound barrier. Acquired concurrently by the shard
		// goroutines, two Batches could each hold one shard and wait
		// for the other's behind a queued writer (a waiting writer
		// blocks new readers) — a cycle. One goroutine taking them in
		// ascending shard order makes the hold-and-wait acyclic;
		// sweepPhase2 releases each.
		for _, s := range b.x.shards {
			s.mu.RLock()
		}
	}
	for _, f := range b.funcs {
		go f()
	}
	b.wg.Wait()
	if hasKNN {
		b.globalBounds(qs)
		b.wg2.Done()
		b.wg3.Wait()
	}
	b.qs, b.span = nil, nil

	total := 0
	for i := range b.so {
		b.x.filters.Add(b.so[i].delta)
		b.so[i].delta = obs.FilterDelta{}
		total += len(b.so[i].neighbors)
	}

	// Merge: concatenate each query's per-shard segments into the flat
	// result buffer (pre-sized from the exact hit total), sort into
	// (dist, id) order, and truncate kNN queries to their n.
	b.res = growCap(b.res, total)[:0]
	b.out = growCap(b.out, len(qs))[:0]
	for qi := range qs {
		start := len(b.res)
		for si := range b.so {
			so := &b.so[si]
			b.res = append(b.res, so.neighbors[so.segs[2*qi]:so.segs[2*qi+1]]...)
		}
		view := b.res[start:len(b.res):len(b.res)]
		slices.SortFunc(view, cmpNeighbor)
		if n := qs[qi].KNN; n > 0 && len(view) > n {
			view = view[:n]
		}
		b.out = append(b.out, view)
	}
	return b.out, nil
}

// SearchInto is Search answering into the Batch arena: every indexed
// ranking within maxDist of q (minus exclude), sorted by (dist, id).
// The result aliases the arena — valid until the next call on b.
func (b *Batch) SearchInto(q *rankings.Ranking, maxDist int, exclude int64) ([]Neighbor, error) {
	b.one[0] = Query{R: q, MaxDist: maxDist, Exclude: exclude}
	res, err := b.SearchBatchInto(b.one[:], nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// KNNInto is KNN answering into the Batch arena: the n indexed
// rankings closest to q (minus exclude), sorted by (dist, id). The
// result aliases the arena — valid until the next call on b.
func (b *Batch) KNNInto(q *rankings.Ranking, n int, exclude int64) ([]Neighbor, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: knn n must be positive, got %d", n)
	}
	b.one[0] = Query{R: q, KNN: n, Exclude: exclude}
	res, err := b.SearchBatchInto(b.one[:], nil)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
