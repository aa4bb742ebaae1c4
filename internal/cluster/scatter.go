package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"rankjoin/internal/rankings"
	"rankjoin/internal/shard"
)

// Peer-local RPC paths. These are registered by internal/server on
// every node, a ring of one included, and answered against that node's
// own index only. They stay beside the public endpoints instead of
// being folded into them because they never fan out: a scatter is
// depth-one by construction, even when two peers disagree about the
// ring.
const (
	PathSearch  = "/v1/cluster/search"
	PathGet     = "/v1/cluster/get"
	PathInsert  = "/v1/cluster/insert"
	PathDelete  = "/v1/cluster/delete"
	PathShuffle = "/v1/cluster/shuffle"
	PathJoin    = "/v1/cluster/join"
	// PathReplicate is the durability plane's pull endpoint: a follower
	// posts its per-shard epoch vector and receives, per shard, either
	// the WAL records above its epoch or a full snapshot.
	PathReplicate = "/v1/cluster/replicate"
)

// SearchReq is the peer-local search RPC body. KNN > 0 selects top-KNN
// mode; otherwise the peer derives the range cutoff from Theta and its
// local k, which equals every other peer's k because inserts enforce a
// uniform length cluster-wide.
type SearchReq struct {
	Items   []rankings.Item `json:"items"`
	Theta   float64         `json:"theta,omitempty"`
	KNN     int             `json:"knn,omitempty"`
	Exclude int64           `json:"exclude"`
}

// SearchResp carries one peer's local hits.
type SearchResp struct {
	Hits []shard.Neighbor `json:"hits"`
}

// GetReq looks a ranking up by id on its owner peer, so id-form
// queries resolve against the peer that actually stores the ranking.
type GetReq struct {
	ID int64 `json:"id"`
}

// GetResp returns the ranking when the owner has it.
type GetResp struct {
	Ranking *rankings.Ranking `json:"ranking,omitempty"`
}

// UpsertReq ships ring-routed rankings to their owner peer.
type UpsertReq struct {
	Rankings []*rankings.Ranking `json:"rankings"`
}

// DeleteReq ships ring-routed deletions to their owner peer.
type DeleteReq struct {
	IDs []int64 `json:"ids"`
}

// DeleteResp reports how many of the ids were present.
type DeleteResp struct {
	Deleted int `json:"deleted"`
}

// OKResp acknowledges a mutation RPC.
type OKResp struct {
	OK bool `json:"ok"`
}

// ScatterResult is a merged scatter-gather answer. Partial is true
// when at least one peer failed and its shard of the data is missing
// from Hits; Failed names those peers.
type ScatterResult struct {
	Hits    []shard.Neighbor
	Partial bool
	Failed  []string
}

// SearchPeer runs the peer-local search RPC against peer p.
func (c *Cluster) SearchPeer(ctx context.Context, p int, req SearchReq) (SearchResp, error) {
	return postJSON[SearchReq, SearchResp](ctx, c.peer(p), PathSearch, req, 0)
}

// GetPeer fetches a ranking by id from peer p.
func (c *Cluster) GetPeer(ctx context.Context, p int, id int64) (GetResp, error) {
	return postJSON[GetReq, GetResp](ctx, c.peer(p), PathGet, GetReq{ID: id}, 0)
}

// UpsertPeer ships rankings to peer p for local insertion. Mutating
// RPC: exactly one attempt, never hedged — a timer-hedged duplicate
// would apply twice on the owner and double-bump its shard epochs.
func (c *Cluster) UpsertPeer(ctx context.Context, p int, rs []*rankings.Ranking) error {
	_, err := postJSONMutate[UpsertReq, OKResp](ctx, c.peer(p), PathInsert, UpsertReq{Rankings: rs}, 0)
	return err
}

// DeletePeer ships deletions to peer p; returns how many existed.
// Mutating RPC: exactly one attempt, as in UpsertPeer.
func (c *Cluster) DeletePeer(ctx context.Context, p int, ids []int64) (int, error) {
	resp, err := postJSONMutate[DeleteReq, DeleteResp](ctx, c.peer(p), PathDelete, DeleteReq{IDs: ids}, 0)
	return resp.Deleted, err
}

// ErrAllShardsFailed wraps the first failure of a scatter over more
// than one peer in which no leg answered — 502 at the HTTP layer. A
// ring of one returns its only leg's error unwrapped: nothing but this
// node failed, and the error keeps the status it has on its own.
var ErrAllShardsFailed = errors.New("all cluster shards failed")

// Scatter fans req out to every peer — the local index via the local
// callback, run on the calling goroutine, remote peers via the
// peer-local search RPC — waits for all of them, and merges. A failed
// peer degrades the answer to partial instead of failing the query;
// only when every shard fails does Scatter return an error. A world of
// one is its local leg and nothing else: it returns before anything is
// allocated, as DistributedJoin returns its local engine's result.
func (c *Cluster) Scatter(ctx context.Context, req SearchReq, local func(context.Context) ([]shard.Neighbor, error)) (ScatterResult, error) {
	n := c.Size()
	if n == 1 {
		hits, err := local(ctx)
		return ScatterResult{Hits: hits}, err
	}
	hits := make([][]shard.Neighbor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		if p == c.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			resp, err := c.SearchPeer(ctx, p, req)
			hits[p], errs[p] = resp.Hits, err
		}(p)
	}
	hits[c.cfg.Self], errs[c.cfg.Self] = local(ctx)
	wg.Wait()

	var res ScatterResult
	var firstErr error
	for p := 0; p < n; p++ {
		if errs[p] != nil {
			if firstErr == nil {
				firstErr = errs[p]
			}
			res.Failed = append(res.Failed, c.cfg.Peers[p])
			c.logger.Warn("cluster: scatter shard failed", "peer", c.cfg.Peers[p], "err", errs[p])
			continue
		}
		res.Hits = append(res.Hits, hits[p]...)
	}
	if len(res.Failed) == n {
		return res, fmt.Errorf("%w: %w", ErrAllShardsFailed, firstErr)
	}
	res.Partial = len(res.Failed) > 0
	if res.Partial {
		c.partials.Add(1)
	}
	res.Hits = MergeHits(res.Hits, req.KNN)
	return res, nil
}

// MergeHits orders shard-local hit lists into one global answer —
// ascending distance, id-ordered within a distance band (the same
// deterministic order a single node produces) — and truncates to the
// top knn when knn > 0.
func MergeHits(hits []shard.Neighbor, knn int) []shard.Neighbor {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return hits[i].ID < hits[j].ID
	})
	if knn > 0 && len(hits) > knn {
		hits = hits[:knn]
	}
	return hits
}

// GroupByOwner splits rankings by their owner peer, preserving input
// order within each group — the routing step behind clustered insert.
func (c *Cluster) GroupByOwner(rs []*rankings.Ranking) map[int][]*rankings.Ranking {
	groups := make(map[int][]*rankings.Ranking)
	for _, r := range rs {
		p := c.Owner(r.ID)
		groups[p] = append(groups[p], r)
	}
	return groups
}

// GroupIDsByOwner splits ids by owner peer, for clustered delete.
func (c *Cluster) GroupIDsByOwner(ids []int64) map[int][]int64 {
	groups := make(map[int][]int64)
	for _, id := range ids {
		p := c.Owner(id)
		groups[p] = append(groups[p], id)
	}
	return groups
}
