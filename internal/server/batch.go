package server

import (
	"context"
	"errors"
	"sync/atomic"

	"rankjoin/internal/obs"
	"rankjoin/internal/shard"
)

// batcher coalesces concurrent search/kNN requests into shared shard
// sweeps. A single dispatcher goroutine takes whatever requests have
// queued while the previous sweep was running and answers them through
// one Index.SearchBatch call — every shard is locked and scanned once
// per batch instead of once per request, which is where the fan-out
// cost of a sharded index under concurrent load goes.
type batcher struct {
	idx      *shard.Index
	maxBatch int
	ch       chan *searchCall
	stop     chan struct{}
	done     chan struct{}

	// batch is the dispatcher's private execution arena: only the loop
	// goroutine touches it, so the shard sweeps of consecutive batches
	// reuse one set of scratch buffers and allocate nothing. Results
	// alias the arena and are copied per response below (responses and
	// the query cache outlive the next sweep).
	batch *shard.Batch
	qs    []shard.Query

	sweeps     atomic.Int64
	coalesced  atomic.Int64 // requests answered in a batch of size > 1
	batchSizes obs.Histogram
}

type searchCall struct {
	q    shard.Query
	span *obs.Span // head-sampled request's root span; nil when unsampled
	resp chan searchResult
}

type searchResult struct {
	hits []shard.Neighbor
	err  error
}

var errServerClosed = errors.New("server: shutting down")

func newBatcher(idx *shard.Index, maxBatch int) *batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	b := &batcher{
		idx:      idx,
		maxBatch: maxBatch,
		ch:       make(chan *searchCall, 4*maxBatch),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		batch:    idx.NewBatch(),
		qs:       make([]shard.Query, 0, maxBatch),
	}
	go b.loop()
	return b
}

// do submits one query and waits for its result or the context
// deadline. The response channel is buffered so an abandoned request
// never blocks the dispatcher. span, when non-nil, receives the sweep
// that answers the query as a child.
func (b *batcher) do(ctx context.Context, q shard.Query, span *obs.Span) ([]shard.Neighbor, error) {
	call := &searchCall{q: q, span: span, resp: make(chan searchResult, 1)}
	select {
	case b.ch <- call:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-b.stop:
		return nil, errServerClosed
	}
	select {
	case r := <-call.resp:
		return r.hits, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *batcher) loop() {
	defer close(b.done)
	for {
		var first *searchCall
		select {
		case first = <-b.ch:
		case <-b.stop:
			b.drainAndFail()
			return
		}
		batch := []*searchCall{first}
		// Coalesce everything that queued while we were away, up to the
		// batch cap; no timer — the natural arrival backlog during the
		// previous sweep is the batch.
	drain:
		for len(batch) < b.maxBatch {
			select {
			case c := <-b.ch:
				batch = append(batch, c)
			default:
				break drain
			}
		}
		b.run(batch)
	}
}

func (b *batcher) run(batch []*searchCall) {
	b.qs = b.qs[:0]
	// The sweep is traced under the FIRST head-sampled caller's span;
	// with no sampled caller in the batch, sweep is nil and the whole
	// sweep records nothing and allocates nothing — that is the
	// steady-state fast path the AllocsPerRun suite pins.
	var parent *obs.Span
	for _, c := range batch {
		if parent == nil {
			parent = c.span
		}
		b.qs = append(b.qs, c.q)
	}
	// The nil guard (not just nil-receiver safety) matters: building the
	// variadic attr slice would allocate on the unsampled path.
	var sweep *obs.Span
	if parent != nil {
		sweep = parent.StartChild("serve/sweep", obs.Int("batch", int64(len(batch))))
	}
	results, err := b.batch.SearchBatchInto(b.qs, sweep)
	sweep.End()
	b.sweeps.Add(1)
	b.batchSizes.Observe(int64(len(batch)))
	if len(batch) > 1 {
		b.coalesced.Add(int64(len(batch)))
	}
	if err != nil {
		// A batch-level error means some query failed validation (e.g.
		// its k raced the very first insert). Re-run individually so
		// only the offending requests fail.
		for _, c := range batch {
			hits, qerr := b.idx.SearchBatch([]shard.Query{c.q}, nil)
			if qerr != nil {
				c.resp <- searchResult{err: qerr}
			} else {
				c.resp <- searchResult{hits: hits[0]}
			}
		}
		return
	}
	for i, c := range batch {
		c.resp <- searchResult{hits: copyHits(results[i])}
	}
}

// copyHits detaches one result list from the sweep arena, which is
// reused by the next batch while the response (and the query cache
// entry) are still alive.
func copyHits(v []shard.Neighbor) []shard.Neighbor {
	if len(v) == 0 {
		return nil
	}
	return append([]shard.Neighbor(nil), v...)
}

func (b *batcher) drainAndFail() {
	for {
		select {
		case c := <-b.ch:
			c.resp <- searchResult{err: errServerClosed}
		default:
			return
		}
	}
}

func (b *batcher) close() {
	close(b.stop)
	<-b.done
}
