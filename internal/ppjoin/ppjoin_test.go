package ppjoin_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/filters"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// TestKernelsAgreeWithBruteForce: every in-memory kernel must produce
// exactly the oracle's result set on randomized datasets of varying
// density.
func TestKernelsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		k := 3 + rng.Intn(10)
		n := 20 + rng.Intn(80)
		dom := k + rng.Intn(4*k)
		rs := testutil.RandDataset(rng, n, k, dom)
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)
		want := ppjoin.BruteForce(rs, maxDist, new(obs.FilterDelta))

		if got := ppjoin.NestedLoop(rs, maxDist, new(obs.FilterDelta)); !rankings.SamePairs(got, want) {
			a, b := rankings.DiffPairs(got, want)
			t.Fatalf("NestedLoop trial %d (k=%d F=%d): extra %v missing %v", trial, k, maxDist, a, b)
		}

		prefix := filters.PrefixOverlap(maxDist, k)
		if got := ppjoin.PrefixIndex(testutil.Renumber(rs), prefix, maxDist, new(obs.FilterDelta)); !rankings.SamePairs(got, want) {
			a, b := rankings.DiffPairs(got, want)
			t.Fatalf("PrefixIndex trial %d (k=%d F=%d p=%d): extra %v missing %v",
				trial, k, maxDist, prefix, a, b)
		}
	}
}

// TestClusteredDatasets exercises the kernels on datasets with genuine
// near-duplicate structure, the regime CL targets.
func TestClusteredDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		k := 5 + rng.Intn(8)
		rs := testutil.ClusteredDataset(rng, 10, 4, k, 6*k)
		maxDist := rankings.Threshold(0.2+0.3*rng.Float64(), k)
		want := ppjoin.BruteForce(rs, maxDist, new(obs.FilterDelta))
		if len(want) == 0 {
			t.Fatalf("clustered dataset produced no close pairs — generator broken")
		}
		prefix := filters.PrefixOverlap(maxDist, k)
		if got := ppjoin.PrefixIndex(testutil.Renumber(rs), prefix, maxDist, new(obs.FilterDelta)); !rankings.SamePairs(got, want) {
			t.Fatalf("PrefixIndex diverges on clustered data (trial %d)", trial)
		}
		if got := ppjoin.NestedLoop(rs, maxDist, new(obs.FilterDelta)); !rankings.SamePairs(got, want) {
			t.Fatalf("NestedLoop diverges on clustered data (trial %d)", trial)
		}
	}
}

// TestRSJoin: the R-S kernel equals the cross-list subset of the
// brute-force join over the union.
func TestRSJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		k := 4 + rng.Intn(8)
		dom := k + rng.Intn(3*k)
		r := testutil.RandDataset(rng, 15+rng.Intn(25), k, dom)
		s := make([]*rankings.Ranking, 0, 20)
		for i := 0; i < 15+rng.Intn(25); i++ {
			rk := testutil.RandRanking(rng, int64(1000+i), k, dom)
			s = append(s, rk)
		}
		maxDist := rng.Intn(rankings.MaxFootrule(k) + 1)

		var want []rankings.Pair
		for _, a := range r {
			for _, b := range s {
				if d, ok := rankings.FootruleWithin(a, b, maxDist); ok {
					want = append(want, rankings.NewPair(a.ID, b.ID, d))
				}
			}
		}
		got := ppjoin.RS(r, s, maxDist, new(obs.FilterDelta))
		if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(want)) {
			t.Fatalf("RS trial %d diverges", trial)
		}
	}
}

func TestRSSkipsSameID(t *testing.T) {
	a := rankings.MustNew(7, []rankings.Item{1, 2, 3})
	b := rankings.MustNew(7, []rankings.Item{1, 2, 3})
	if got := ppjoin.RS([]*rankings.Ranking{a}, []*rankings.Ranking{b}, 100, new(obs.FilterDelta)); len(got) != 0 {
		t.Errorf("RS paired a ranking with itself: %v", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rs := testutil.RandDataset(rng, 50, 8, 24)
	maxDist := rankings.Threshold(0.3, 8)

	var st obs.FilterDelta
	res := ppjoin.NestedLoop(rs, maxDist, &st)
	if st.Emitted != int64(len(res)) {
		t.Errorf("ledger emitted %d, kernel returned %d", st.Emitted, len(res))
	}
	if st.Generated != 50*49/2 {
		t.Errorf("nested-loop candidates %d, want %d", st.Generated, 50*49/2)
	}
	if !st.Conserved() {
		t.Errorf("nested-loop ledger not conserved: %v", st)
	}

	// The prefix index must generate no more candidates than the
	// nested loop examines.
	var ip obs.FilterDelta
	prefix := filters.PrefixOverlap(maxDist, 8)
	ppjoin.PrefixIndex(testutil.Renumber(rs), prefix, maxDist, &ip)
	if ip.Generated > st.Generated {
		t.Errorf("prefix index candidates %d exceed nested loop %d", ip.Generated, st.Generated)
	}
	if !ip.Conserved() {
		t.Errorf("prefix-index ledger not conserved: %v", ip)
	}
}

func TestEmptyAndSingleInputs(t *testing.T) {
	if got := ppjoin.BruteForce(nil, 10, new(obs.FilterDelta)); len(got) != 0 {
		t.Error("brute force on empty input")
	}
	one := []*rankings.Ranking{rankings.MustNew(0, []rankings.Item{1, 2})}
	if got := ppjoin.NestedLoop(one, 10, new(obs.FilterDelta)); len(got) != 0 {
		t.Error("nested loop on single ranking")
	}
	if got := ppjoin.PrefixIndex(testutil.Renumber(one), 1, 10, new(obs.FilterDelta)); len(got) != 0 {
		t.Error("prefix index on single ranking")
	}
}

// TestDuplicateContentDistinctIDs: the preprocessing note in §7 — after
// cutting records to length k the dataset may contain distance-0 pairs
// with different ids; they are legitimate results.
func TestDuplicateContentDistinctIDs(t *testing.T) {
	a := rankings.MustNew(1, []rankings.Item{1, 2, 3})
	b := rankings.MustNew(2, []rankings.Item{1, 2, 3})
	got := ppjoin.NestedLoop([]*rankings.Ranking{a, b}, 0, new(obs.FilterDelta))
	if len(got) != 1 || got[0].Dist != 0 {
		t.Errorf("distance-0 pair not reported: %v", got)
	}
}
