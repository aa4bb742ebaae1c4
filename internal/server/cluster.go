package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"rankjoin/internal/cluster"
	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// The peer-local plane. Every server is a peer of a ring — a single
// node is a ring of one — and the public endpoints in server.go are
// written against the ring: /v1/search and /v1/knn scatter to every
// peer's /v1/cluster/search (the local leg answers in-process) and
// merge, degrading to a partial answer when a peer is down rather than
// failing; /v1/insert and /v1/delete route each ranking to its ring
// owner; /v1/join runs the SPMD distributed join.
//
// The /v1/cluster/* endpoints below are what those fan out to. They
// are strictly peer-local: they answer from this peer's own index
// through the same localSearch/insertLocal/deleteLocal the public
// endpoints' self share uses, and never fan out again, so a scatter is
// depth-one by construction.

// lookup finds an indexed ranking by id: here or, failing that, on its
// ring owner — /v1/search {"id":N} must work no matter which peer
// receives it. On a ring of one the owner is this node and its miss
// stands.
func (s *Server) lookup(ctx context.Context, id int64) (*rankings.Ranking, error) {
	if r, ok := s.idx.Get(id); ok {
		return r, nil
	}
	if owner := s.cluster.Owner(id); owner != s.cluster.Self() {
		resp, err := s.cluster.GetPeer(ctx, owner, id)
		if err != nil {
			return nil, &httpError{status: http.StatusBadGateway,
				err: fmt.Errorf("resolve id %d on owner peer: %w", id, err)}
		}
		if resp.Ranking != nil {
			resp.Ranking.Index()
			return resp.Ranking, nil
		}
	}
	return nil, &httpError{status: http.StatusNotFound,
		err: fmt.Errorf("no indexed ranking with id %d", id)}
}

// routed applies a mutation grouped by ring owner: remote shares go out
// concurrently through remote (UpsertPeer/DeletePeer — one attempt
// each, never hedged), the self share is applied by local on this
// goroutine meanwhile, and the applied counts are summed. All-or-error:
// a local failure keeps its own status, any peer failure is a 502
// (shares that reached healthy peers stay applied; the caller retries
// idempotently). On a ring of one there is one group and no goroutine.
func routed[T any](c *cluster.Cluster, what string, groups map[int][]T,
	local func([]T) (int, error), remote func(peer int, share []T) (int, error)) (int, error) {
	// Per-peer slots keep the tally race-free and failure reporting
	// deterministic whatever order the map range or the goroutines run.
	counts := make([]int, c.Size())
	errs := make([]error, c.Size())
	var wg sync.WaitGroup
	for peer, share := range groups {
		if peer == c.Self() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[peer], errs[peer] = remote(peer, share)
		}()
	}
	var err error
	if share := groups[c.Self()]; len(share) > 0 {
		counts[c.Self()], err = local(share)
	}
	wg.Wait()
	if err != nil {
		return 0, err
	}
	n, failed := 0, 0
	for peer := range errs {
		n += counts[peer]
		if errs[peer] != nil {
			failed++
			err = cmp.Or(err, errs[peer]) // the first in peer-rank order
		}
	}
	if failed > 0 {
		return 0, &httpError{status: http.StatusBadGateway,
			err: fmt.Errorf("%s routed to %d peers, %d failed: %w", what, len(groups), failed, err)}
	}
	return n, nil
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
	sq := shard.Query{R: q, KNN: req.KNN, Exclude: req.Exclude}
	if req.KNN <= 0 {
		if !rankings.ThetaInRange(req.Theta) {
			return finish(w, badRequest(fmt.Errorf("theta %v out of [0,1]", req.Theta)))
		}
		sq.MaxDist = rankings.Threshold(req.Theta, q.K())
	}
	hits, _, err := s.localSearch(r.Context(), sq)
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
	if _, err := s.insertLocal(req.Rankings); err != nil {
		return finish(w, err)
	}
	return writeJSON(w, cluster.OKResp{OK: true})
}

// handleClusterDelete deletes ids from the local index.
func (s *Server) handleClusterDelete(w http.ResponseWriter, r *http.Request) error {
	var req cluster.DeleteReq
	if err := decode(r, &req); err != nil {
		return finish(w, err)
	}
	n, err := s.deleteLocal(req.IDs)
	if err != nil {
		return finish(w, err)
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
