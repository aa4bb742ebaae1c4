package vsmart_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
	"rankjoin/internal/vsmart"
)

func ctx(workers int) *flow.Context {
	return flow.NewContext(flow.Config{Workers: workers, DefaultPartitions: 4})
}

// TestVSMARTMatchesOracle: the distributed gain aggregation returns
// exactly the brute-force result set, distances included.
func TestVSMARTMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := 3 + rng.Intn(10)
		rs := testutil.RandDataset(rng, 40+rng.Intn(80), k, k+rng.Intn(4*k))
		theta := rng.Float64()
		want := rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(theta, k), new(obs.FilterDelta)))
		got, err := vsmart.Join(ctx(1+rng.Intn(4)), rs, vsmart.Options{
			Theta:      theta,
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

// TestVSMARTDegenerateTheta: θ=1 admits zero-overlap pairs, recovered
// by the complement pass.
func TestVSMARTDegenerateTheta(t *testing.T) {
	rs := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{7, 8, 9}),
		rankings.MustNew(2, []rankings.Item{1, 2, 3}),
	}
	got, err := vsmart.Join(ctx(2), rs, vsmart.Options{Theta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("θ=1 should return all 3 pairs, got %v", got)
	}
	for _, p := range got {
		want := rankings.MaxFootrule(3)
		if p.A == 0 && p.B == 2 {
			want = 0
		}
		if p.Dist != want {
			t.Errorf("pair %v, want dist %d", p, want)
		}
	}
}

func TestVSMARTValidation(t *testing.T) {
	if _, err := vsmart.Join(ctx(1), nil, vsmart.Options{Theta: 0.5}); err != nil {
		t.Errorf("empty dataset: %v", err)
	}
	mixed := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2}),
		rankings.MustNew(1, []rankings.Item{1, 2, 3}),
	}
	if _, err := vsmart.Join(ctx(1), mixed, vsmart.Options{Theta: 0.5}); err == nil {
		t.Error("mixed lengths accepted")
	}
	if _, err := vsmart.Join(ctx(1), mixed[:1], vsmart.Options{Theta: -1}); err == nil {
		t.Error("bad theta accepted")
	}
}

// TestVSMARTAgainstVJ cross-checks the two independent pipelines on
// clustered data.
func TestVSMARTAgainstVJ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.ClusteredDataset(rng, 15, 4, 8, 40)
	want := rankings.DedupPairs(ppjoin.BruteForce(rs, rankings.Threshold(0.3, 8), new(obs.FilterDelta)))
	got, err := vsmart.Join(ctx(4), rs, vsmart.Options{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(got, want) {
		t.Fatal("V-SMART diverged on clustered data")
	}
}
