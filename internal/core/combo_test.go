package core_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/core"
	"rankjoin/internal/flow"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// TestOptionMatrix drives CL through combinations of every option
// simultaneously — repartitioning in both phases, ablation toggles,
// unverified partials — against the oracle. Feature
// interactions are where bugs hide.
func TestOptionMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	rs := testutil.ClusteredDataset(rng, 15, 4, 10, 70)
	const theta = 0.3
	want := oracle(rs, theta)
	wantKeys := map[rankings.PairKey]int{}
	for _, p := range want {
		wantKeys[p.Key()] = p.Dist
	}

	var combos []core.Options
	for _, delta := range []int{0, 4} {
		for _, uniform := range []bool{false, true} {
			for _, unverified := range []bool{false, true} {
				combos = append(combos, core.Options{
					Theta: theta, ThetaC: 0.05,
					Delta:                delta,
					UniformJoinThreshold: uniform,
					UnverifiedPartials:   unverified,
				})
			}
		}
	}
	for i, opts := range combos {
		ctx := flow.NewContext(flow.Config{Workers: 4, DefaultPartitions: 3})
		got, err := core.Join(ctx, rs, opts)
		if err != nil {
			t.Fatalf("combo %d (%+v): %v", i, opts, err)
		}
		if len(got) != len(want) {
			t.Fatalf("combo %d (%+v): %d pairs, want %d", i, opts, len(got), len(want))
		}
		for _, p := range got {
			trueDist, ok := wantKeys[p.Key()]
			if !ok {
				t.Fatalf("combo %d: spurious pair %v", i, p)
			}
			if p.Dist != trueDist && !(opts.UnverifiedPartials && p.Dist == -1) {
				t.Fatalf("combo %d: pair %v wrong distance (true %d)", i, p, trueDist)
			}
		}
	}
}

// TestLargeK exercises the k=25 regime of Figure 11 against the oracle.
func TestLargeK(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rs := testutil.ClusteredDataset(rng, 10, 3, 25, 200)
	for _, theta := range []float64{0.1, 0.3} {
		want := oracle(rs, theta)
		got, err := core.Join(ctx(4), rs, core.Options{Theta: theta, ThetaC: 0.03, Delta: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(got, want) {
			t.Fatalf("k=25 θ=%v diverged", theta)
		}
	}
}
