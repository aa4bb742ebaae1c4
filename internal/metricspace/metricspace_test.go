package metricspace_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/metricspace"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func TestRandomCentroidClusteringInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rs := testutil.ClusteredDataset(rng, 20, 4, 10, 60)
	maxDist := rankings.Threshold(0.05, 10)
	res, err := metricspace.RandomCentroidClustering(rs, 10, maxDist, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every ranking is a centroid, a member of exactly one cluster, or
	// a singleton.
	seen := map[int64]int{}
	for _, c := range res.Clusters {
		seen[c.Centroid.ID]++
		for _, m := range c.Members {
			seen[m.R.ID]++
			if m.Dist > maxDist {
				t.Errorf("member %d at distance %d beyond radius %d", m.R.ID, m.Dist, maxDist)
			}
			if got := rankings.Footrule(m.R, c.Centroid); got != m.Dist {
				t.Errorf("recorded distance %d, true %d", m.Dist, got)
			}
		}
	}
	for _, s := range res.Singletons {
		seen[s.ID]++
	}
	if len(seen) != len(rs) {
		t.Fatalf("%d of %d rankings assigned", len(seen), len(rs))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("ranking %d assigned %d times", id, n)
		}
	}
	if res.AssignmentDistances == 0 {
		t.Error("no assignment distances recorded")
	}
}

// TestRandomCentroidsSingletonHeavy demonstrates the paper's critique:
// with a tiny clustering threshold, random centroids leave most
// clusters empty.
func TestRandomCentroidsSingletonHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.RandDataset(rng, 400, 10, 400) // sparse: few near pairs
	maxDist := rankings.Threshold(0.03, 10)
	res, err := metricspace.RandomCentroidClustering(rs, 40, maxDist, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frac := res.EmptyClusterFraction(); frac < 0.5 {
		t.Errorf("expected mostly-empty clusters on sparse data, got %.2f empty", frac)
	}
}

func TestRandomCentroidValidation(t *testing.T) {
	if _, err := metricspace.RandomCentroidClustering(nil, 0, 5, 1); err == nil {
		t.Error("zero centroids accepted")
	}
	res, err := metricspace.RandomCentroidClustering(nil, 3, 5, 1)
	if err != nil || len(res.Clusters) != 0 {
		t.Errorf("empty dataset: %v %v", res, err)
	}
	// More centroids than points: clamps.
	rng := rand.New(rand.NewSource(3))
	rs := testutil.RandDataset(rng, 5, 6, 20)
	res, err = metricspace.RandomCentroidClustering(rs, 50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 5 {
		t.Errorf("clusters = %d, want 5", len(res.Clusters))
	}
}
