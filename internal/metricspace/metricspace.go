// Package metricspace implements the metric-space machinery the paper
// positions its clustering against: random-centroid partition
// clustering in the style of ClusterJoin / Wang et al. (§2, §5.1),
// whose drawbacks (singleton-heavy partitions, cluster count fixed
// upfront) motivate the paper's pair-derived clusters. It is the
// baseline of one ablation (experiments.AblationClustering).
package metricspace

import (
	"fmt"
	"math/rand"

	"rankjoin/internal/rankings"
)

// Cluster is one partition of a dataset: a centroid and the members
// assigned to it (members exclude the centroid itself), with the exact
// centroid distances retained for triangle filtering.
type Cluster struct {
	Centroid *rankings.Ranking
	Members  []ClusterMember
}

// ClusterMember pairs a member ranking with its centroid distance.
type ClusterMember struct {
	R    *rankings.Ranking
	Dist int
}

// RandomCentroidResult carries the clustering outcome and the
// statistics the paper's critique focuses on.
type RandomCentroidResult struct {
	Clusters   []Cluster
	Singletons []*rankings.Ranking
	// AssignmentDistances is the number of distance computations spent
	// assigning points — the cost the paper's pair-based clustering
	// avoids.
	AssignmentDistances int64
}

// RandomCentroidClustering clusters the dataset in the style the paper
// argues against (§5.1): numCentroids points are drawn at random, every
// other point is assigned to its closest centroid if that distance is
// within maxDist, and unassigned points become singletons. It
// reproduces the two failure modes the paper names — for small maxDist
// most clusters stay empty, and the cluster count must be chosen
// upfront.
func RandomCentroidClustering(rs []*rankings.Ranking, numCentroids, maxDist int, seed int64) (RandomCentroidResult, error) {
	if numCentroids <= 0 {
		return RandomCentroidResult{}, fmt.Errorf("metricspace: numCentroids must be positive, got %d", numCentroids)
	}
	var res RandomCentroidResult
	if len(rs) == 0 {
		return res, nil
	}
	if numCentroids > len(rs) {
		numCentroids = len(rs)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(rs))
	centroidIdx := make(map[int]int, numCentroids) // dataset index -> cluster index
	clusters := make([]Cluster, numCentroids)
	for c := 0; c < numCentroids; c++ {
		clusters[c] = Cluster{Centroid: rs[perm[c]]}
		centroidIdx[perm[c]] = c
	}
	for i, r := range rs {
		if _, isCentroid := centroidIdx[i]; isCentroid {
			continue
		}
		best, bestDist := -1, maxDist+1
		for c := range clusters {
			res.AssignmentDistances++
			if d, ok := rankings.FootruleWithin(r, clusters[c].Centroid, bestDist-1); ok {
				best, bestDist = c, d
			}
		}
		if best >= 0 {
			clusters[best].Members = append(clusters[best].Members,
				ClusterMember{R: r, Dist: bestDist})
		} else {
			res.Singletons = append(res.Singletons, r)
		}
	}
	res.Clusters = clusters
	return res, nil
}

// EmptyClusterFraction reports the fraction of clusters that attracted
// no members — the paper's headline critique of random centroids under
// small clustering thresholds.
func (r RandomCentroidResult) EmptyClusterFraction() float64 {
	if len(r.Clusters) == 0 {
		return 0
	}
	empty := 0
	for _, c := range r.Clusters {
		if len(c.Members) == 0 {
			empty++
		}
	}
	return float64(empty) / float64(len(r.Clusters))
}
