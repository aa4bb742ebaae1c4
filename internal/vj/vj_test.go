package vj_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/flow"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
	"rankjoin/internal/vj"
)

func ctx(workers int) *flow.Context {
	return flow.NewContext(flow.Config{Workers: workers, DefaultPartitions: 4})
}

// TestJoinMatchesOracle: both VJ variants equal the brute-force oracle
// across randomized datasets, thresholds and partition counts.
func TestJoinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		k := 4 + rng.Intn(8)
		n := 40 + rng.Intn(120)
		dom := k + rng.Intn(5*k)
		rs := testutil.RandDataset(rng, n, k, dom)
		theta := 0.05 + 0.4*rng.Float64()
		want := ppjoin.BruteForce(rs, rankings.Threshold(theta, k), new(obs.FilterDelta))

		for _, variant := range []vj.Variant{vj.IndexJoin, vj.NestedLoop} {
			got, err := vj.Join(ctx(1+rng.Intn(4)), rs, vj.Options{
				Theta:      theta,
				Variant:    variant,
				Partitions: 1 + rng.Intn(9),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(want)) {
				a, b := rankings.DiffPairs(got, want)
				t.Fatalf("trial %d %v θ=%.3f: extra=%v missing=%v", trial, variant, theta, a, b)
			}
		}
	}
}

// TestJoinOutputHasNoDuplicates: the final distinct stage removes the
// duplicates generated at different posting lists.
func TestJoinOutputHasNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rs := testutil.ClusteredDataset(rng, 20, 5, 8, 30)
	got, err := vj.Join(ctx(4), rs, vj.Options{Theta: 0.3, Partitions: 6})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[rankings.PairKey]bool{}
	for _, p := range got {
		if seen[p.Key()] {
			t.Fatalf("duplicate pair %v in output", p)
		}
		seen[p.Key()] = true
	}
}

// TestRepartitioningEquivalence: any δ ≥ 1 must leave the result set
// unchanged (Algorithm 3 correctness).
func TestRepartitioningEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		k := 5 + rng.Intn(6)
		rs := testutil.RandDataset(rng, 80+rng.Intn(80), k, k+rng.Intn(3*k))
		theta := 0.1 + 0.3*rng.Float64()
		want, err := vj.Join(ctx(4), rs, vj.Options{Theta: theta, Variant: vj.NestedLoop})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []int{1, 2, 5, 10, 50, 1000000} {
			var st vj.Stats
			got, err := vj.Join(ctx(4), rs, vj.Options{
				Theta:   theta,
				Variant: vj.NestedLoop,
				Delta:   delta,
				Stats:   &st,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(want)) {
				a, b := rankings.DiffPairs(got, want)
				t.Fatalf("trial %d δ=%d: extra=%v missing=%v", trial, delta, a, b)
			}
			snap := st.Snapshot()
			if delta == 1000000 && snap.GroupsSplit != 0 {
				t.Errorf("δ=%d split %d groups", delta, snap.GroupsSplit)
			}
			if delta == 1 && snap.GroupsSplit == 0 && snap.LargestGroup > 1 {
				t.Errorf("δ=1 split nothing despite groups of size %d", snap.LargestGroup)
			}
		}
	}
}

// TestLeastTokenDedupEquivalence: the dedup-free variant emits each
// pair exactly once and matches the standard output, with and without
// repartitioning.
func TestLeastTokenDedupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		k := 5 + rng.Intn(6)
		rs := testutil.RandDataset(rng, 60+rng.Intn(100), k, k+rng.Intn(3*k))
		theta := 0.1 + 0.3*rng.Float64()
		want, err := vj.Join(ctx(4), rs, vj.Options{Theta: theta})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []int{0, 7} {
			got, err := vj.Join(ctx(4), rs, vj.Options{
				Theta:           theta,
				LeastTokenDedup: true,
				Delta:           delta,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Exactly once: no dedup applied, so compare raw.
			if !rankings.SamePairs(got, rankings.DedupPairs(want)) {
				a, b := rankings.DiffPairs(got, want)
				dups := len(got) - len(rankings.DedupPairs(append([]rankings.Pair(nil), got...)))
				t.Fatalf("trial %d δ=%d: extra=%v missing=%v duplicates=%d", trial, delta, a, b, dups)
			}
		}
	}
}

// TestSkipReorderStillCorrect: disabling frequency reordering changes
// performance, never results.
func TestSkipReorderStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rs := testutil.RandDataset(rng, 100, 8, 30)
	want, err := vj.Join(ctx(4), rs, vj.Options{Theta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vj.Join(ctx(4), rs, vj.Options{Theta: 0.25, SkipReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(want)) {
		t.Fatal("skip-reorder changed the result set")
	}
}

// TestPrecomputedOrder: rankings renumbered up front (as CL does) and
// joined with SkipReorder skip the counting stage and yield identical
// results.
func TestPrecomputedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rs := testutil.RandDataset(rng, 100, 8, 30)
	want, err := vj.Join(ctx(4), rs, vj.Options{Theta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx(4)
	got, err := vj.Join(c, testutil.Renumber(rs), vj.Options{Theta: 0.25, SkipReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(want)) {
		t.Fatal("precomputed order changed the result set")
	}
}

func TestValidation(t *testing.T) {
	rs := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{1, 2}),
	}
	if _, err := vj.Join(ctx(1), rs, vj.Options{Theta: 0.2}); err == nil {
		t.Error("mixed lengths accepted")
	}
	ok := []*rankings.Ranking{rankings.MustNew(0, []rankings.Item{1, 2, 3})}
	if _, err := vj.Join(ctx(1), ok, vj.Options{Theta: -0.1}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := vj.Join(ctx(1), ok, vj.Options{Theta: 1.5}); err == nil {
		t.Error("theta > 1 accepted")
	}
	got, err := vj.Join(ctx(1), nil, vj.Options{Theta: 0.2})
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset: %v, %v", got, err)
	}
}

// TestThetaZeroFindsExactDuplicates: θ=0 joins must return exactly the
// identical-content pairs.
func TestThetaZeroFindsExactDuplicates(t *testing.T) {
	rs := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3, 4, 5}),
		rankings.MustNew(1, []rankings.Item{1, 2, 3, 4, 5}),
		rankings.MustNew(2, []rankings.Item{1, 2, 3, 5, 4}),
	}
	got, err := vj.Join(ctx(2), rs, vj.Options{Theta: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 0 || got[0].B != 1 || got[0].Dist != 0 {
		t.Errorf("θ=0 results: %v", got)
	}
}

// TestStatsPlumbing: the stats sink observes kernel work.
func TestStatsPlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := testutil.RandDataset(rng, 150, 8, 25)
	var st vj.Stats
	got, err := vj.Join(ctx(4), rs, vj.Options{Theta: 0.3, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if snap.Groups == 0 || snap.Generated == 0 {
		t.Errorf("stats empty: %v", snap)
	}
	if snap.Emitted < int64(len(got)) {
		t.Errorf("kernel results %d < output %d", snap.Emitted, len(got))
	}
	if !snap.Conserved() {
		t.Errorf("kernel ledger not conserved: %v", snap)
	}
	if snap.LargestGroup <= 0 {
		t.Errorf("largest group %d", snap.LargestGroup)
	}
}

// TestDeterministicAcrossWorkers: same input, any worker count — same
// result set.
func TestDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rs := testutil.RandDataset(rng, 120, 10, 40)
	ref, err := vj.Join(ctx(1), rs, vj.Options{Theta: 0.3, Delta: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		got, err := vj.Join(ctx(w), rs, vj.Options{Theta: 0.3, Delta: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(rankings.DedupPairs(got), rankings.DedupPairs(ref)) {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// TestPrefixTokensAllocFree: emitting a ranking's prefix tokens reads
// its position index and allocates nothing (3 allocs/op when every
// call copied and sorted the ranking by a canonical-order map); only
// the catch-all token costs a copy.
func TestPrefixTokensAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := testutil.Renumber(testutil.RandDataset(rng, 20, 10, 40))[0]
	if n := testing.AllocsPerRun(100, func() { vj.PrefixTokens(r, 4, false) }); n != 0 {
		t.Errorf("PrefixTokens: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { vj.PrefixTokens(r, 4, true) }); n > 1 {
		t.Errorf("PrefixTokens with the catch-all: %v allocs/op, want ≤ 1", n)
	}
}
