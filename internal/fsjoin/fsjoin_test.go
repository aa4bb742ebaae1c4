package fsjoin_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/flow"
	"rankjoin/internal/fsjoin"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func ctx(workers int) *flow.Context {
	return flow.NewContext(flow.Config{Workers: workers, DefaultPartitions: 4})
}

// TestFSJoinMatchesOracle over random datasets, thresholds (including
// the degenerate θ range) and segment counts.
func TestFSJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(10)
		rs := testutil.RandDataset(rng, 40+rng.Intn(80), k, k+rng.Intn(4*k))
		theta := rng.Float64()
		want := rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(theta, k), new(obs.FilterDelta)))
		got, err := fsjoin.Join(ctx(1+rng.Intn(4)), rs, fsjoin.Options{
			Theta:      theta,
			Segments:   1 + rng.Intn(30),
			Partitions: 1 + rng.Intn(6),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			extra, missing := rankings.DiffPairs(got, want)
			t.Fatalf("trial %d k=%d θ=%.3f: extra=%v missing=%v", trial, k, theta, extra, missing)
		}
	}
}

// TestFSJoinNoDuplicates: the raw output (no distinct stage!) must be
// duplicate-free — FS-Join's claimed property.
func TestFSJoinNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.ClusteredDataset(rng, 20, 4, 10, 60)
	got, err := fsjoin.Join(ctx(4), rs, fsjoin.Options{Theta: 0.3, Segments: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[rankings.PairKey]bool{}
	for _, p := range got {
		if seen[p.Key()] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p.Key()] = true
	}
	if len(got) == 0 {
		t.Fatal("no results on clustered data")
	}
}

func TestFSJoinValidation(t *testing.T) {
	if got, err := fsjoin.Join(ctx(1), nil, fsjoin.Options{Theta: 0.3}); err != nil || len(got) != 0 {
		t.Errorf("empty: %v %v", got, err)
	}
	mixed := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{1, 2}),
	}
	if _, err := fsjoin.Join(ctx(1), mixed, fsjoin.Options{Theta: 0.3}); err == nil {
		t.Error("mixed lengths accepted")
	}
	if _, err := fsjoin.Join(ctx(1), mixed[:1], fsjoin.Options{Theta: 9}); err == nil {
		t.Error("bad theta accepted")
	}
	// More segments than vocabulary: clamps and stays correct.
	small := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2}),
		rankings.MustNew(1, []rankings.Item{2, 1}),
	}
	got, err := fsjoin.Join(ctx(1), small, fsjoin.Options{Theta: 0.5, Segments: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist != 2 {
		t.Errorf("tiny vocab join: %v", got)
	}
}
