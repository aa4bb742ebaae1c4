package server

// The replication plane: a follower polls its leader's
// /v1/cluster/replicate with its per-shard epoch vector; the leader
// answers, per shard, with whichever is cheaper and available —
// nothing (epochs equal), the WAL records above the follower's epoch
// (contiguity-verified against the leader's segments), or a full
// epoch-consistent shard snapshot (bootstrap, history below the
// compaction floor, or a follower that is somehow ahead, e.g. after
// the leader lost its disk). The shard epoch is the only cursor in the
// protocol, which is what PR-level invariant "one epoch per mutation"
// buys: catch-up is a contiguous replay, and "follower at the same
// epoch vector answers identically" is checkable.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"rankjoin/internal/cluster"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
	"rankjoin/internal/wal"
)

// replicateRequest is the follower's poll. Epochs is its per-shard
// epoch vector; empty means "I have nothing" (bootstrap). Probe asks
// for the response header (NumShards, K) without any shard payloads —
// the shape handshake a booting follower sizes its index from.
type replicateRequest struct {
	Epochs []uint64 `json:"epochs,omitempty"`
	Probe  bool     `json:"probe,omitempty"`
}

// replicateShard is one shard's payload: Body is a snapshot image when
// Full (the bytes a snapshot file holds), otherwise the run of WAL
// frames above the follower's epoch (the bytes the leader's segments
// hold; empty when the follower is already at Epoch). Either way the
// follower hands Body to what recovery hands its files to.
type replicateShard struct {
	Shard int    `json:"shard"`
	Epoch uint64 `json:"epoch"` // follower's epoch after applying this payload
	Full  bool   `json:"full,omitempty"`
	Body  []byte `json:"body,omitempty"`
}

// replicateResponse is the envelope. Version is rankings.WireVersion;
// generation 1 said num_shards, so neither accepts the other's answer.
type replicateResponse struct {
	Version   int              `json:"version"`
	NumShards int              `json:"shards"`
	K         int              `json:"k"`
	Payloads  []replicateShard `json:"payloads,omitempty"`
}

// handleReplicate is the leader side.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) error {
	var req replicateRequest
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	n := s.idx.NumShards()
	resp := replicateResponse{Version: rankings.WireVersion, NumShards: n, K: s.idx.K()}
	if req.Probe {
		return writeJSON(w, resp)
	}
	if len(req.Epochs) != 0 && len(req.Epochs) != n {
		return finish(w, badRequest(fmt.Errorf(
			"epoch vector has %d shards, index has %d", len(req.Epochs), n)))
	}
	resp.Payloads = make([]replicateShard, 0, n)
	for i := 0; i < n; i++ {
		var fe uint64
		if len(req.Epochs) == n {
			fe = req.Epochs[i]
		}
		resp.Payloads = append(resp.Payloads, s.replicateShard(i, fe))
	}
	return writeJSON(w, resp)
}

// replicateShard assembles one shard's payload for a follower at
// epoch fe.
func (s *Server) replicateShard(i int, fe uint64) replicateShard {
	if s.idx.Epochs()[i] == fe {
		return replicateShard{Shard: i, Epoch: fe} // already caught up
	}
	if s.wal != nil && fe > 0 {
		if recs, ok, err := s.wal.RecordsSince(i, fe); err == nil && ok {
			out := replicateShard{Shard: i, Epoch: fe}
			for _, rec := range recs {
				out.Body = append(out.Body, rec.Frame...)
				out.Epoch = rec.Epoch
			}
			return out
		}
	}
	// Fallback: a consistent full snapshot (bootstrap, compacted
	// history, or a follower ahead of us).
	rs, e := s.idx.SnapshotShard(i, nil)
	if e == fe {
		return replicateShard{Shard: i, Epoch: fe} // raced to equal; no-op
	}
	return replicateShard{Shard: i, Epoch: e, Full: true, Body: wal.EncodeSnapshot(i, e, rs)}
}

// Replica is the follower side: it bootstraps from and then
// continuously polls a leader, applying epoch deltas (or full shard
// snapshots) to the local index. The server it is handed to serves
// /v1/search and /v1/knn from that index and rejects writes.
type Replica struct {
	leader string
	idx    *shard.Index
	every  time.Duration
	client *http.Client
	logger *slog.Logger

	lagEpochs      atomic.Int64 // Σ(leader − local) observed pre-apply
	syncs          atomic.Int64
	fullShardLoads atomic.Int64
	recordsApplied atomic.Int64
	errs           atomic.Int64
	lastSyncNano   atomic.Int64
	lastErr        atomic.Pointer[string]

	// root is the lifecycle context every poll derives from; Close
	// cancels it, aborting any in-flight sync instead of waiting out
	// its timeout.
	root       context.Context
	rootCancel context.CancelFunc

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// ErrLeaderShape reports a leader whose shard count or k no longer
// matches the follower's index; the follower cannot proceed.
var ErrLeaderShape = errors.New("server: leader shape mismatch")

// NewReplica builds a follower of the leader at addr (host:port).
// every is the poll interval (0 = 1s).
func NewReplica(addr string, idx *shard.Index, every time.Duration, logger *slog.Logger) *Replica {
	if every <= 0 {
		every = time.Second
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	r := &Replica{
		leader: addr,
		idx:    idx,
		every:  every,
		client: &http.Client{Timeout: 30 * time.Second},
		logger: logger,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.root, r.rootCancel = context.WithCancel(context.Background())
	return r
}

// ProbeLeader asks the leader at addr for its index shape — the
// handshake a booting follower sizes its own index from.
func ProbeLeader(ctx context.Context, addr string) (numShards, k int, err error) {
	resp, err := postReplicate(ctx, &http.Client{Timeout: 10 * time.Second}, addr, replicateRequest{Probe: true})
	if err != nil {
		return 0, 0, err
	}
	return resp.NumShards, resp.K, nil
}

func postReplicate(ctx context.Context, client *http.Client, addr string, req replicateRequest) (replicateResponse, error) {
	var out replicateResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, fmt.Errorf("server: marshal replicate request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+addr+cluster.PathReplicate, bytes.NewReader(body))
	if err != nil {
		return out, fmt.Errorf("server: build replicate request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	if err != nil {
		return out, fmt.Errorf("server: leader %s: %w", addr, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("server: leader %s: replicate status %d", addr, hresp.StatusCode)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("server: leader %s: parse replicate response: %w", addr, err)
	}
	if out.Version != rankings.WireVersion {
		return out, fmt.Errorf("server: leader %s answers in format version %d, this build reads version %d",
			addr, out.Version, rankings.WireVersion)
	}
	return out, nil
}

// SyncOnce runs one poll-and-apply round.
func (r *Replica) SyncOnce(ctx context.Context) error {
	resp, err := postReplicate(ctx, r.client, r.leader, replicateRequest{Epochs: r.idx.Epochs()})
	if err != nil {
		return r.noteErr(err)
	}
	if resp.NumShards != r.idx.NumShards() {
		return r.noteErr(fmt.Errorf("%w: leader has %d shards, follower %d",
			ErrLeaderShape, resp.NumShards, r.idx.NumShards()))
	}
	// Lag is measured pre-apply: how far behind this round found us.
	local := r.idx.Epochs()
	var lag int64
	for _, sh := range resp.Payloads {
		if sh.Shard >= 0 && sh.Shard < len(local) && sh.Epoch > local[sh.Shard] {
			lag += int64(sh.Epoch - local[sh.Shard])
		}
	}
	r.lagEpochs.Store(lag)
	for _, sh := range resp.Payloads {
		if err := r.applyShard(sh); err != nil {
			return r.noteErr(err)
		}
	}
	r.syncs.Add(1)
	r.lastSyncNano.Store(time.Now().UnixNano())
	return nil
}

// applyShard is recovery run on what the leader sent instead of what
// the disk holds.
func (r *Replica) applyShard(sh replicateShard) error {
	if !sh.Full {
		applied, _, err := wal.ReplayShard(r.idx, sh.Shard, sh.Body)
		r.recordsApplied.Add(int64(applied))
		return err
	}
	shard, epoch, rs, err := wal.DecodeSnapshot(sh.Body)
	if err == nil && (shard != sh.Shard || epoch != sh.Epoch) {
		err = fmt.Errorf("image is shard %d at epoch %d", shard, epoch)
	}
	if err == nil {
		err = r.idx.RestoreShard(shard, rs, epoch)
	}
	if err != nil {
		return fmt.Errorf("server: replicate restore shard %d at epoch %d: %w", sh.Shard, sh.Epoch, err)
	}
	r.fullShardLoads.Add(1)
	return nil
}

func (r *Replica) noteErr(err error) error {
	r.errs.Add(1)
	msg := err.Error()
	r.lastErr.Store(&msg)
	return err
}

// Start launches the poll loop.
func (r *Replica) Start() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.every)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					ctx, cancel := context.WithTimeout(r.root, r.every*10+time.Second)
					if err := r.SyncOnce(ctx); err != nil {
						r.logger.Warn("replica sync failed", "leader", r.leader, "err", err)
					}
					cancel()
				}
			}
		}()
	})
}

// Close stops the poll loop and aborts any in-flight sync.
func (r *Replica) Close() {
	r.Start() // ensure done will be closed
	r.rootCancel()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
}

// ReplicaStatus is the follower's /statusz and /metrics document.
type ReplicaStatus struct {
	Leader         string  `json:"leader"`
	LagEpochs      int64   `json:"lag_epochs"`
	Syncs          int64   `json:"syncs"`
	FullShardLoads int64   `json:"full_shard_loads"`
	RecordsApplied int64   `json:"records_applied"`
	Errors         int64   `json:"errors"`
	LastSyncAgeS   float64 `json:"last_sync_age_s"` // -1 before the first sync
	LastError      string  `json:"last_error,omitempty"`
}

// Status snapshots the replica's counters.
func (r *Replica) Status() ReplicaStatus {
	st := ReplicaStatus{
		Leader:         r.leader,
		LagEpochs:      r.lagEpochs.Load(),
		Syncs:          r.syncs.Load(),
		FullShardLoads: r.fullShardLoads.Load(),
		RecordsApplied: r.recordsApplied.Load(),
		Errors:         r.errs.Load(),
		LastSyncAgeS:   -1,
	}
	if t := r.lastSyncNano.Load(); t > 0 {
		st.LastSyncAgeS = time.Since(time.Unix(0, t)).Seconds()
	}
	if msg := r.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}
