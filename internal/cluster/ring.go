// Package cluster turns N rankserved processes into one logical
// service. It has two planes:
//
//   - Serving plane: consistent-hash placement of rankings across
//     peers (insert/delete route to the owner; the ring reuses the
//     splitmix64 id hashing of internal/shard one level up) and
//     scatter-gather fan-out for search/kNN with per-peer deadlines,
//     hedged retries and partial-result degradation when a peer is
//     down.
//
//   - Batch plane: a wire implementation of flow.Exchanger so the
//     eight join algorithms run unchanged in SPMD mode across the
//     cluster — every peer executes the identical driver, shuffles
//     exchange length-prefixed binary frames over persistent HTTP
//     connections, and actions all-gather so every peer holds the
//     identical result.
//
// The cluster is static: the full ordered peer list is part of every
// peer's configuration and all peers must agree on it.
package cluster

import (
	"fmt"
	"sort"
)

// splitmix64 is the avalanche hash behind both ranking placement and
// ring point generation — the same constants internal/shard uses to
// route ids to shards, applied one level up to route ids to peers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Ring is a consistent-hash ring mapping ranking ids to peer indexes.
// Each peer contributes a fixed number of virtual points; an id is
// owned by the peer whose point is the first at or clockwise of the
// id's hash. Virtual points smooth the load split (±a few percent at
// 64 points per peer) and keep future membership changes minimal-move,
// even though membership is static today.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	peer int
}

// virtualNodes is each peer's point count on the placement ring.
const virtualNodes = 64

// NewRing builds a ring over peers×vnodes virtual points. vnodes must
// be positive and collisions across distinct peers are resolved by the
// lower peer index (deterministic on every member).
func NewRing(peers, vnodes int) (*Ring, error) {
	if peers <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer, got %d", peers)
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("cluster: ring needs positive virtual nodes, got %d", vnodes)
	}
	r := &Ring{points: make([]ringPoint, 0, peers*vnodes)}
	for p := 0; p < peers; p++ {
		for v := 0; v < vnodes; v++ {
			// Double-hashed on purpose: ids are placed by a single
			// splitmix64, so a single-hashed point for peer 0, vnode v
			// would equal the hash of id v exactly — ids 0..vnodes-1
			// would all land on peer 0's own points. A second round
			// puts the point stream out of the id stream's image.
			h := splitmix64(splitmix64(uint64(p)<<32 | uint64(v)))
			r.points = append(r.points, ringPoint{hash: h, peer: p})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].peer < r.points[j].peer
	})
	return r, nil
}

// Owner returns the peer index that owns ranking id.
func (r *Ring) Owner(id int64) int {
	h := splitmix64(uint64(id))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise
	}
	return r.points[i].peer
}
