package clusterjoin_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/clusterjoin"
	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func ctx(workers int) *flow.Context {
	return flow.NewContext(flow.Config{Workers: workers, DefaultPartitions: 4})
}

// TestClusterJoinMatchesOracle: the anchor-window replication must not
// lose any pair, across random anchor counts, thresholds and datasets.
func TestClusterJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(10)
		rs := testutil.RandDataset(rng, 40+rng.Intn(80), k, k+rng.Intn(4*k))
		theta := 0.05 + 0.6*rng.Float64()
		want := rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(theta, k), new(obs.FilterDelta)))
		got, st, err := clusterjoin.Join(ctx(1+rng.Intn(4)), rs, clusterjoin.Options{
			Theta:      theta,
			Anchors:    1 + rng.Intn(20),
			Partitions: 1 + rng.Intn(6),
			Seed:       int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			extra, missing := rankings.DiffPairs(got, want)
			t.Fatalf("trial %d k=%d θ=%.3f anchors=%d: extra=%v missing=%v",
				trial, k, theta, st.Anchors, extra, missing)
		}
		if st.HomeRecords != int64(len(rs)) {
			t.Fatalf("home records %d, want %d", st.HomeRecords, len(rs))
		}
	}
}

// TestClusterJoinClusteredData: the regime with real clusters — and the
// stats must show the replication cost the paper criticizes growing
// with θ.
func TestClusterJoinClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.ClusteredDataset(rng, 20, 4, 10, 80)
	var repsSmall, repsLarge int64
	for _, theta := range []float64{0.05, 0.4} {
		want := rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(theta, 10), new(obs.FilterDelta)))
		got, st, err := clusterjoin.Join(ctx(4), rs, clusterjoin.Options{Theta: theta, Anchors: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			t.Fatalf("θ=%v diverged", theta)
		}
		if theta == 0.05 {
			repsSmall = st.Replicas
		} else {
			repsLarge = st.Replicas
		}
	}
	if repsLarge <= repsSmall {
		t.Errorf("replication did not grow with θ: %d vs %d", repsSmall, repsLarge)
	}
}

func TestClusterJoinValidationAndEdges(t *testing.T) {
	got, st, err := clusterjoin.Join(ctx(1), nil, clusterjoin.Options{Theta: 0.3})
	if err != nil || len(got) != 0 || st == nil {
		t.Errorf("empty dataset: %v %v %v", got, st, err)
	}
	one := []*rankings.Ranking{rankings.MustNew(0, []rankings.Item{1, 2, 3})}
	got, st, err = clusterjoin.Join(ctx(1), one, clusterjoin.Options{Theta: 0.3, Anchors: 10})
	if err != nil || len(got) != 0 {
		t.Errorf("single ranking: %v %v", got, err)
	}
	if st.Anchors != 1 {
		t.Errorf("anchor clamp failed: %d", st.Anchors)
	}
	mixed := append(one, rankings.MustNew(1, []rankings.Item{1, 2}))
	if _, _, err := clusterjoin.Join(ctx(1), mixed, clusterjoin.Options{Theta: 0.3}); err == nil {
		t.Error("mixed lengths accepted")
	}
	if _, _, err := clusterjoin.Join(ctx(1), one, clusterjoin.Options{Theta: 2}); err == nil {
		t.Error("bad theta accepted")
	}
}
