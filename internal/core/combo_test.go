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
// unverified partials, spilling — against the oracle. Feature
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

	type combo struct {
		name  string
		opts  core.Options
		spill bool
	}
	var combos []combo
	for _, delta := range []int{0, 4} {
		for _, uniform := range []bool{false, true} {
			for _, unverified := range []bool{false, true} {
				for _, spill := range []bool{false, true} {
					combos = append(combos, combo{
						name: "matrix",
						opts: core.Options{
							Theta: theta, ThetaC: 0.05,
							Delta:                delta,
							UniformJoinThreshold: uniform,
							UnverifiedPartials:   unverified,
						},
						spill: spill,
					})
				}
			}
		}
	}
	for i, c := range combos {
		cfg := flow.Config{Workers: 4, DefaultPartitions: 3}
		if c.spill {
			cfg.SpillDir = t.TempDir()
			cfg.SpillThreshold = 4
		}
		ctx := flow.NewContext(cfg)
		got, err := core.Join(ctx, rs, c.opts)
		if err != nil {
			t.Fatalf("combo %d (%+v): %v", i, c.opts, err)
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("combo %d (%+v spill=%v): %d pairs, want %d",
				i, c.opts, c.spill, len(got), len(want))
		}
		for _, p := range got {
			trueDist, ok := wantKeys[p.Key()]
			if !ok {
				t.Fatalf("combo %d: spurious pair %v", i, p)
			}
			if p.Dist != trueDist && !(c.opts.UnverifiedPartials && p.Dist == -1) {
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
