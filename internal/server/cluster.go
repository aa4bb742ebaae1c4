package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"rankjoin"
	"rankjoin/internal/cluster"
	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// Clustered serving. When Config.Cluster is set, the public endpoints
// change shape:
//
//   - /v1/search and /v1/knn scatter to every peer's /v1/cluster/search
//     (the local shard answers in-process) and merge, degrading to a
//     partial answer when a peer is down rather than failing;
//   - /v1/insert and /v1/delete route each ranking to its ring owner;
//   - /v1/join ships the dataset to all peers and runs the SPMD
//     distributed join.
//
// The /v1/cluster/* endpoints are strictly peer-local: they answer
// from this peer's own index and never fan out again, so a scatter is
// depth-one by construction.

// clustered reports whether this server is part of a multi-peer
// cluster. A nil cluster or a one-peer cluster serves single-node.
func (s *Server) clustered() bool { return s.cluster != nil && s.cluster.Size() > 1 }

// localSearch answers one peer-local query against this server's own
// index through the coalescing batcher.
func (s *Server) localSearch(ctx context.Context, q shard.Query) ([]shard.Neighbor, error) {
	return s.batch.do(ctx, q, ctxSpan(ctx))
}

// scatter answers a public search/kNN across the whole cluster.
func (s *Server) scatter(ctx context.Context, w http.ResponseWriter, q shard.Query, theta float64) error {
	req := cluster.SearchReq{Items: q.R.Items, Theta: theta, KNN: q.KNN, Exclude: q.Exclude}
	sp := ctxSpan(ctx).StartChild("serve/scatter", obs.Int("peers", int64(s.cluster.Size())))
	defer sp.End()
	res, err := s.cluster.Scatter(ctx, req, func(ctx context.Context) ([]shard.Neighbor, error) {
		return s.localSearch(ctx, q)
	})
	if err != nil {
		return finish(w, &httpError{status: http.StatusBadGateway,
			err: fmt.Errorf("all cluster shards failed: %w", err)})
	}
	sp.SetInt("hits", int64(len(res.Hits)))
	sp.SetInt("peers_failed", int64(len(res.Failed)))
	return writeJSON(w, searchResponse{
		Hits:        nonNil(res.Hits),
		Partial:     res.Partial,
		PeersFailed: res.Failed,
	})
}

// resolveClusterQuery resolves an id-form query against the ring owner
// when the ranking is not indexed locally — in a cluster, /v1/search
// {"id":N} must work no matter which peer receives it.
func (s *Server) resolveClusterQuery(ctx context.Context, req *queryRequest) (*rankings.Ranking, int64, error) {
	q, exclude, err := s.parseQuery(req)
	if err == nil || req.ID == nil || !s.clustered() {
		return q, exclude, err
	}
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusNotFound {
		return nil, 0, err
	}
	owner := s.cluster.Owner(*req.ID)
	if owner == s.cluster.Self() {
		return nil, 0, err // we are the owner and we don't have it
	}
	resp, gerr := s.cluster.GetPeer(ctx, owner, *req.ID)
	if gerr != nil {
		return nil, 0, &httpError{status: http.StatusBadGateway,
			err: fmt.Errorf("resolve id %d on owner peer: %w", *req.ID, gerr)}
	}
	if resp.Ranking == nil {
		return nil, 0, err // authoritative miss
	}
	resp.Ranking.Index()
	return resp.Ranking, *req.ID, nil
}

// --- peer-local endpoints ---

// handleClusterSearch answers a peer-local search: this index only, no
// further fan-out.
func (s *Server) handleClusterSearch(w http.ResponseWriter, r *http.Request) error {
	var req cluster.SearchReq
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	q, err := rankings.New(shard.NoExclude, req.Items)
	if err != nil {
		return finish(w, badRequest(err))
	}
	q.Index()
	if err := s.checkQueryK(q); err != nil {
		return finish(w, err)
	}
	k := s.idx.K()
	if k == 0 {
		return writeJSON(w, cluster.SearchResp{Hits: []shard.Neighbor{}})
	}
	sq := shard.Query{R: q, KNN: req.KNN, Exclude: req.Exclude}
	if req.KNN <= 0 {
		if !rankings.ThetaInRange(req.Theta) {
			return finish(w, badRequest(fmt.Errorf("theta %v out of [0,1]", req.Theta)))
		}
		sq.MaxDist = rankings.Threshold(req.Theta, k)
	}
	hits, err := s.localSearch(r.Context(), sq)
	if err != nil {
		return finish(w, err)
	}
	return writeJSON(w, cluster.SearchResp{Hits: nonNil(hits)})
}

// handleClusterGet returns a locally indexed ranking by id.
func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) error {
	var req cluster.GetReq
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	rk, _ := s.idx.Get(req.ID) // nil when absent
	return writeJSON(w, cluster.GetResp{Ranking: rk})
}

// handleClusterInsert inserts rankings into the local index without
// ring routing — the sender already routed them here.
func (s *Server) handleClusterInsert(w http.ResponseWriter, r *http.Request) error {
	var req cluster.UpsertReq
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	for _, rk := range req.Rankings {
		if err := s.idx.Insert(rk); err != nil {
			return finish(w, err)
		}
	}
	return writeJSON(w, cluster.OKResp{OK: true})
}

// handleClusterDelete deletes ids from the local index.
func (s *Server) handleClusterDelete(w http.ResponseWriter, r *http.Request) error {
	var req cluster.DeleteReq
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	n := 0
	for _, id := range req.IDs {
		ok, err := s.idx.Delete(id)
		if err != nil {
			return finish(w, fmt.Errorf("delete %d: %w", id, err))
		}
		if ok {
			n++
		}
	}
	return writeJSON(w, cluster.DeleteResp{Deleted: n})
}

// handleClusterShuffle accepts one shuffle frame into the inbox.
func (s *Server) handleClusterShuffle(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return finish(w, badRequest(fmt.Errorf("read frame: %w", err)))
	}
	if err := s.cluster.HandleShuffleFrame(body); err != nil {
		return finish(w, badRequest(err))
	}
	return writeJSON(w, cluster.OKResp{OK: true})
}

// handleClusterJoin runs this peer's share of a distributed join. The
// join outlives the per-request deadline by design — it lasts as long
// as the slowest collective — so the handler escapes the route
// deadline and lets the cluster's JoinTimeout bound it instead.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return finish(w, badRequest(fmt.Errorf("read join start: %w", err)))
	}
	if err := s.cluster.HandleJoinStart(context.WithoutCancel(r.Context()), body); err != nil {
		if errors.Is(err, cluster.ErrMalformed) {
			return finish(w, badRequest(err))
		}
		return finish(w, &httpError{status: http.StatusInternalServerError, err: err})
	}
	return writeJSON(w, cluster.OKResp{OK: true})
}

// handleClusterInfo describes this peer.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) error {
	var req struct{}
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	return writeJSON(w, cluster.InfoResp{
		Self:     s.cluster.Self(),
		Peers:    s.cluster.Size(),
		Rankings: s.idx.Len(),
		K:        s.idx.K(),
		Addr:     s.cluster.Addr(s.cluster.Self()),
	})
}

// --- clustered public mutations ---

// clusterInsert ring-routes validated rankings to their owner peers.
// All-or-error: any peer failure fails the request (rankings shipped
// to healthy peers stay inserted; the caller retries idempotently).
func (s *Server) clusterInsert(ctx context.Context, w http.ResponseWriter, rs []*rankings.Ranking) error {
	groups := s.cluster.GroupByOwner(rs)
	// Per-peer error slots keep failure reporting deterministic no
	// matter which order the map range or the goroutines run in.
	perPeer := make([]error, s.cluster.Size())
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	// The local share is applied on this goroutine while remote fan-out
	// runs; it must keep its own tally (merged after Wait) so the main
	// goroutine never touches n concurrently with the peer goroutines.
	local := 0
	var localErr error
	n := 0
	for peer, group := range groups {
		if peer == s.cluster.Self() {
			for _, rk := range group {
				if err := s.idx.Insert(rk); err != nil {
					localErr = err
					break
				}
				local++
			}
			continue
		}
		wg.Add(1)
		go func(peer int, group []*rankings.Ranking) {
			defer wg.Done()
			err := s.cluster.UpsertPeer(ctx, peer, group)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				perPeer[peer] = err
				return
			}
			n += len(group)
		}(peer, group)
	}
	wg.Wait()
	if localErr != nil {
		return finish(w, localErr)
	}
	n += local
	if failed, first := countErrs(perPeer); failed > 0 {
		return finish(w, &httpError{status: http.StatusBadGateway,
			err: fmt.Errorf("insert routed to %d peers, %d failed: %w", len(groups), failed, first)})
	}
	return writeJSON(w, map[string]any{"inserted": n, "size": s.idx.Len()})
}

// clusterDelete ring-routes deletions to their owner peers.
func (s *Server) clusterDelete(ctx context.Context, w http.ResponseWriter, ids []int64) error {
	groups := s.cluster.GroupIDsByOwner(ids)
	perPeer := make([]error, s.cluster.Size())
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	// As in clusterInsert: the local tally stays off n until Wait.
	local := 0
	var localErr error
	n := 0
	for peer, group := range groups {
		if peer == s.cluster.Self() {
			for _, id := range group {
				ok, err := s.idx.Delete(id)
				if err != nil {
					localErr = fmt.Errorf("delete %d: %w", id, err)
					break
				}
				if ok {
					local++
				}
			}
			continue
		}
		wg.Add(1)
		go func(peer int, group []int64) {
			defer wg.Done()
			deleted, err := s.cluster.DeletePeer(ctx, peer, group)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				perPeer[peer] = err
				return
			}
			n += deleted
		}(peer, group)
	}
	wg.Wait()
	if localErr != nil {
		return finish(w, localErr)
	}
	n += local
	if failed, first := countErrs(perPeer); failed > 0 {
		return finish(w, &httpError{status: http.StatusBadGateway,
			err: fmt.Errorf("delete routed to %d peers, %d failed: %w", len(groups), failed, first)})
	}
	return writeJSON(w, map[string]any{"deleted": n, "size": s.idx.Len()})
}

// countErrs counts non-nil entries and returns the first in peer-rank
// order (deterministic across runs).
func countErrs(perPeer []error) (int, error) {
	var first error
	n := 0
	for _, err := range perPeer {
		if err != nil {
			if first == nil {
				first = err
			}
			n++
		}
	}
	return n, first
}

// clusterJoin runs the ad-hoc join as a cluster-wide SPMD job. VJ is
// exact, so the pairs are identical to the single-node brute-force
// handler's — but the prefix-index stages run on flow, which means the
// job's shuffles genuinely cross the wire instead of degenerating into
// N independent local computations the way brute force would.
func (s *Server) clusterJoin(ctx context.Context, w http.ResponseWriter, rs []*rankings.Ranking, theta float64) error {
	res, err := s.cluster.DistributedJoin(context.WithoutCancel(ctx), rs, rankjoin.Options{
		Algorithm: rankjoin.AlgVJ,
		Theta:     theta,
	})
	if err != nil {
		return finish(w, &httpError{status: http.StatusBadGateway, err: err})
	}
	out := make([]pairJSON, len(res.Pairs))
	for i, p := range res.Pairs {
		out[i] = pairJSON{A: p.A, B: p.B, Dist: p.Dist}
	}
	return writeJSON(w, map[string]any{"pairs": out, "distributed": true})
}
