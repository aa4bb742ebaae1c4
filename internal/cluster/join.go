package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"rankjoin"
	"rankjoin/internal/flow"
	"rankjoin/internal/rankings"
)

// The batch plane. A distributed join is SPMD: the coordinator (the
// peer that received /v1/join) ships the full input dataset and the
// join options to every other peer, then all peers — coordinator
// included — run the identical rankjoin.Engine.Join with a
// wireExchange plugged in as the flow.Exchanger. Each flow shuffle
// becomes an all-to-all of binary frames over the peer links; each
// action becomes an all-gather; every peer finishes holding the
// byte-identical Result, and the coordinator answers with its own
// copy.

// joinSeq mints locally unique join sequence numbers; the job id is
// "j<coordinator>-<seq>", unique cluster-wide because the coordinator
// rank is embedded.
var joinSeq atomic.Int64

// joinHeader is the JSON head of a join-start payload; the dataset
// follows it.
type joinHeader struct {
	Job  string           `json:"job"`
	Opts rankjoin.Options `json:"opts"`
}

// joinMagic tags join-start bodies (generation rankings.WireVersion).
const joinMagic = "RKJ2"

// encodeJoinStart builds the join-start body: the magic, then one CRC
// frame of header length (uvarint), JSON header, counted dataset.
func encodeJoinStart(job string, opts rankjoin.Options, rs []*rankings.Ranking) ([]byte, error) {
	hdr, err := json.Marshal(joinHeader{Job: job, Opts: opts})
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal join header: %w", err)
	}
	buf := make([]byte, 0, len(joinMagic)+len(hdr)+32*len(rs)+32)
	buf = append(buf, joinMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)
	buf = rankings.AppendRankings(buf, rs)
	return rankings.EndFrame(buf, len(joinMagic)), nil
}

// decodeJoinStart parses a join-start body. The rankings come back
// indexed, and the header must be spelled as encodeJoinStart spells it:
// a body has one encoding, and peers that disagree about Options'
// fields refuse each other instead of joining under different options.
func decodeJoinStart(body []byte) (joinHeader, []*rankings.Ranking, error) {
	var hdr joinHeader
	rest, err := rankings.Unseal(joinMagic, body)
	if err != nil {
		return hdr, nil, fmt.Errorf("cluster: %w", err)
	}
	hdrLen, n := rankings.Uvarint(rest)
	if n <= 0 || hdrLen > uint64(len(rest)-n) {
		return hdr, nil, fmt.Errorf("cluster: join-start header length out of bounds")
	}
	raw := rest[n : n+int(hdrLen)]
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return hdr, nil, fmt.Errorf("cluster: parse join header: %w", err)
	}
	if canon, err := json.Marshal(hdr); err != nil || !bytes.Equal(canon, raw) {
		return hdr, nil, fmt.Errorf("cluster: join-start header is not in canonical form")
	}
	if hdr.Job == "" {
		return hdr, nil, fmt.Errorf("cluster: join-start with empty job id")
	}
	rest = rest[n+int(hdrLen):]
	rs, n, err := rankings.DecodeRankings(rest)
	if err != nil {
		return hdr, nil, fmt.Errorf("cluster: decode join dataset: %w", err)
	}
	if n != len(rest) {
		return hdr, nil, fmt.Errorf("cluster: %d bytes after the join dataset", len(rest)-n)
	}
	for _, r := range rs {
		r.Index()
	}
	return hdr, rs, nil
}

// wireExchange is the HTTP-backed flow.Exchanger for one join job.
// Alltoall posts one frame per remote peer and blocks on the inbox
// until every remote frame for (job, collective) has arrived. The ctx
// carries the job deadline, so a dead peer fails the join instead of
// hanging it.
type wireExchange struct {
	c   *Cluster
	job string
	ctx context.Context
}

func (e *wireExchange) World() (self, size int) { return e.c.cfg.Self, e.c.Size() }

func (e *wireExchange) Alltoall(id int64, outbound [][]byte) ([][]byte, error) {
	c, self, size := e.c, e.c.cfg.Self, e.c.Size()
	if len(outbound) != size {
		return nil, fmt.Errorf("cluster: alltoall with %d frames for world of %d", len(outbound), size)
	}
	sendErrs := make([]error, size)
	var wg sync.WaitGroup
	for dst := 0; dst < size; dst++ {
		if dst == self {
			continue
		}
		wg.Add(1)
		go func(dst int) {
			defer wg.Done()
			body := encodeFrame(frame{Job: e.job, Collective: id, Src: self, Payload: outbound[dst]})
			_, err := c.peer(dst).do(e.ctx, PathShuffle, "application/octet-stream", body, 0)
			if err == nil {
				c.framesSent.Add(1)
				c.bytesSent.Add(int64(len(body)))
			}
			sendErrs[dst] = err
		}(dst)
	}

	inbound := make([][]byte, size)
	inbound[self] = outbound[self]
	var waitErr error
	for src := 0; src < size; src++ {
		if src == self {
			continue
		}
		payload, err := c.inbox.wait(e.ctx, inboxKey{job: e.job, collective: id, src: src})
		if err != nil {
			waitErr = err
			break
		}
		inbound[src] = payload
	}
	wg.Wait()
	for dst, err := range sendErrs {
		if err != nil {
			return nil, fmt.Errorf("cluster: job %s collective %d: send to peer %d: %w", e.job, id, dst, err)
		}
	}
	if waitErr != nil {
		return nil, waitErr
	}
	return inbound, nil
}

var _ flow.Exchanger = (*wireExchange)(nil)

// DistributedJoin runs a similarity join across the whole cluster and
// returns the coordinator's copy of the identical result every peer
// computes. It ships the dataset to all peers, then participates as a
// worker itself; its own worker can only complete once every peer has
// progressed through every collective, so success implies cluster-wide
// agreement. A peer that fails mid-join surfaces here as a shuffle
// error, not a hang.
func (c *Cluster) DistributedJoin(ctx context.Context, rs []*rankings.Ranking, opts rankjoin.Options) (*rankjoin.Result, error) {
	// A ring of one joins on an engine with no exchanger — flow's world
	// of one — instead of a wireExchange that would post to nobody: the
	// job id, the join-start body and the inbox exist to agree with
	// other peers, and there are none.
	if c.Size() == 1 {
		eng := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: c.cfg.JoinWorkers})
		return eng.Join(rs, opts)
	}
	job := fmt.Sprintf("j%d-%d", c.cfg.Self, joinSeq.Add(1))
	body, err := encodeJoinStart(job, opts, rs)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.JoinTimeout)
	defer cancel()

	// Launch the followers. Their handlers run the whole join before
	// acking, so acks only lag the coordinator's own worker below —
	// which is the real completion signal: it cannot finish unless
	// every follower progressed through every collective. Follower
	// errors therefore only need logging.
	for p := 0; p < c.Size(); p++ {
		if p == c.cfg.Self {
			continue
		}
		go func(p int) {
			if _, err := c.peer(p).doSlow(ctx, PathJoin, "application/octet-stream", body, c.cfg.JoinTimeout); err != nil {
				c.logger.Warn("cluster: join follower failed", "job", job, "peer", c.cfg.Peers[p], "err", err)
			}
		}(p)
	}

	res, err := c.runWorker(ctx, job, rs, opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: job %s: %w", job, err)
	}
	return res, nil
}

// HandleJoinStart is the follower side of PathJoin: decode the
// dataset, run the identical join as this peer's worker, ack when
// done. Duplicate starts (hedged RPCs) collapse onto the first run's
// outcome through the job table.
func (c *Cluster) HandleJoinStart(ctx context.Context, body []byte) error {
	hdr, rs, err := decodeJoinStart(body)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.JoinTimeout)
	defer cancel()
	_, err = c.runWorker(ctx, hdr.Job, rs, hdr.Opts)
	return err
}

// runWorker executes this peer's SPMD share of job. The first caller
// for a job owns the run; concurrent or later callers wait for and
// share its outcome.
func (c *Cluster) runWorker(ctx context.Context, job string, rs []*rankings.Ranking, opts rankjoin.Options) (*rankjoin.Result, error) {
	entry, owns := c.jobs.begin(job)
	if !owns {
		select {
		case <-entry.done:
			return entry.res, entry.err
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: waiting for job %s: %w", job, ctx.Err())
		}
	}
	eng := rankjoin.NewEngine(rankjoin.EngineConfig{
		Workers:  c.cfg.JoinWorkers,
		Exchange: &wireExchange{c: c, job: job, ctx: ctx},
	})
	res, err := eng.Join(rs, opts)
	c.inbox.finishJob(job)
	c.jobs.finish(job, res, err)
	return res, err
}

// HandleShuffleFrame is the receive side of PathShuffle: decode and
// deliver to the inbox. Duplicates and post-completion stragglers are
// dropped silently — both are expected under hedging.
func (c *Cluster) HandleShuffleFrame(body []byte) error {
	f, err := decodeFrame(body)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if f.Src < 0 || f.Src >= c.Size() || f.Src == c.cfg.Self {
		return fmt.Errorf("%w: shuffle frame from invalid src %d", ErrMalformed, f.Src)
	}
	c.inbox.put(f)
	return nil
}
