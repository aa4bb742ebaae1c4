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

// TestFSJoinMatchesOracle over random datasets, thresholds and segment
// counts (twice the partitions), plus fixed θ = 1 inputs: there a pair
// sharing no item sits at exactly normalized distance 1, and only the
// catch-all group of the degenerate regime can find it.
func TestFSJoinMatchesOracle(t *testing.T) {
	type oracleCase struct {
		rs                  []*rankings.Ranking
		k                   int
		theta               float64
		workers, partitions int
	}
	rng := rand.New(rand.NewSource(1))
	var cases []oracleCase
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(10)
		rs := testutil.RandDataset(rng, 40+rng.Intn(80), k, k+rng.Intn(4*k))
		theta := rng.Float64()
		workers := 1 + rng.Intn(4)
		cases = append(cases, oracleCase{rs, k, theta, workers, 1 + rng.Intn(15)})
	}
	for _, c := range []struct{ n, k, vocab, parts int }{
		{12, 1, 4, 1}, {12, 1, 4, 3}, {15, 2, 5, 2}, {40, 5, 30, 7},
	} {
		cases = append(cases, oracleCase{testutil.RandDataset(rng, c.n, c.k, c.vocab), c.k, 1, 2, c.parts})
	}
	for i, c := range cases {
		want := rankings.DedupPairs(ppjoin.BruteForce(c.rs, rankings.Threshold(c.theta, c.k), new(obs.FilterDelta)))
		got, err := fsjoin.Join(ctx(c.workers), c.rs, fsjoin.Options{
			Theta:      c.theta,
			Partitions: c.partitions,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			extra, missing := rankings.DiffPairs(got, want)
			t.Fatalf("case %d k=%d θ=%.3f: extra=%v missing=%v", i, c.k, c.theta, extra, missing)
		}
	}
}

// TestFSJoinNoDuplicates: the raw output (no distinct stage!) must be
// duplicate-free — FS-Join's claimed property.
func TestFSJoinNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.ClusteredDataset(rng, 20, 4, 10, 60)
	got, err := fsjoin.Join(ctx(4), rs, fsjoin.Options{Theta: 0.3, Partitions: 4})
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
	got, err := fsjoin.Join(ctx(1), small, fsjoin.Options{Theta: 0.5, Partitions: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist != 2 {
		t.Errorf("tiny vocab join: %v", got)
	}
}
