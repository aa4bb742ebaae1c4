package dataset_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/dataset"
	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/stats"
)

func TestGenerateBasics(t *testing.T) {
	rs, err := dataset.Generate(dataset.GenConfig{N: 500, K: 10, Domain: 300, Skew: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 500 {
		t.Fatalf("generated %d", len(rs))
	}
	seenIDs := map[int64]bool{}
	for _, r := range rs {
		if r.K() != 10 {
			t.Fatalf("ranking %d has length %d", r.ID, r.K())
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if seenIDs[r.ID] {
			t.Fatalf("duplicate id %d", r.ID)
		}
		seenIDs[r.ID] = true
		for _, it := range r.Items {
			if it < 0 || int(it) >= 300 {
				t.Fatalf("item %d out of domain", it)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := dataset.GenConfig{N: 100, K: 8, Domain: 100, Skew: 1.0, DupRate: 0.2, Seed: 9}
	a, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !rankings.Equal(a[i], b[i]) {
			t.Fatalf("non-deterministic at %d", i)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []dataset.GenConfig{
		{N: -1, K: 5, Domain: 10},
		{N: 10, K: 0, Domain: 10},
		{N: 10, K: 5, Domain: 3},
		{N: 10, K: 5, Domain: 10, DupRate: 1.5},
	}
	for _, cfg := range bad {
		if _, err := dataset.Generate(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestGenerateSkewIsVisible(t *testing.T) {
	flat, err := dataset.Generate(dataset.GenConfig{N: 3000, K: 10, Domain: 1500, Skew: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := dataset.Generate(dataset.GenConfig{N: 3000, K: 10, Domain: 1500, Skew: 1.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sf := stats.EstimateSkew(rankings.ItemCounts(flat))
	ss := stats.EstimateSkew(rankings.ItemCounts(skewed))
	if ss < sf+0.3 {
		t.Errorf("skewed dataset skew %v not clearly above uniform %v", ss, sf)
	}
}

func TestDupRateCreatesNearPairs(t *testing.T) {
	noDup, err := dataset.Generate(dataset.GenConfig{N: 800, K: 10, Domain: 4000, Skew: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	withDup, err := dataset.Generate(dataset.GenConfig{N: 800, K: 10, Domain: 4000, Skew: 0.5, DupRate: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	thetaC := rankings.Threshold(0.05, 10)
	nearNo := len(ppjoin.BruteForce(noDup, thetaC, new(obs.FilterDelta)))
	nearWith := len(ppjoin.BruteForce(withDup, thetaC, new(obs.FilterDelta)))
	if nearWith <= nearNo {
		t.Errorf("dup rate produced no extra near pairs: %d vs %d", nearWith, nearNo)
	}
	if nearWith < 50 {
		t.Errorf("only %d near pairs at 30%% dup rate — clustering regime too thin", nearWith)
	}
}

func TestPerturbStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base, err := dataset.Generate(dataset.GenConfig{N: 1, K: 10, Domain: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		p := dataset.Perturb(rng, base[0], 1000+int64(trial), 2, 100)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if p.K() != 10 {
			t.Fatalf("perturbed length %d", p.K())
		}
		// Two gentle steps move at most a bounded distance: each step
		// changes the Footrule distance by at most 2k.
		if d := rankings.Footrule(base[0], p); d > 4*10 {
			t.Fatalf("perturbation too violent: %d", d)
		}
	}
}

func TestTopKPreprocessing(t *testing.T) {
	records := [][]rankings.Item{
		{1, 2, 3, 4, 5}, // kept, cut to 3
		{1, 2},          // dropped: too short
		{1, 1, 2, 2, 3}, // in-record dups skipped -> [1 2 3]
		{1, 2, 3, 4, 5}, // exact duplicate record: removed
		{9, 8, 7},       // kept
		{5, 5, 6},       // only 2 distinct -> dropped for k=3
	}
	rs := dataset.TopK(records, 3)
	if len(rs) != 3 {
		t.Fatalf("kept %d records: %v", len(rs), rs)
	}
	if rs[0].Items[0] != 1 || rs[0].Items[2] != 3 {
		t.Errorf("first ranking %v", rs[0])
	}
	for i, r := range rs {
		if r.ID != int64(i) {
			t.Errorf("ids not renumbered: %v", r)
		}
	}
}

func TestScaleProperties(t *testing.T) {
	base, err := dataset.Generate(dataset.GenConfig{N: 300, K: 8, Domain: 200, Skew: 0.8, DupRate: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	x3 := dataset.Scale(base, 3, 200)
	if len(x3) != 900 {
		t.Fatalf("scaled size %d", len(x3))
	}
	ids := map[int64]bool{}
	for _, r := range x3 {
		if ids[r.ID] {
			t.Fatalf("duplicate id %d after scaling", r.ID)
		}
		ids[r.ID] = true
		for _, it := range r.Items {
			if it < 0 || it >= 200 {
				t.Fatalf("scaled item %d escaped the domain", it)
			}
		}
	}
	// Result size must grow roughly linearly (the paper's requirement).
	maxDist := rankings.Threshold(0.1, 8)
	base1 := len(ppjoin.BruteForce(base, maxDist, new(obs.FilterDelta)))
	scaled := len(ppjoin.BruteForce(x3, maxDist, new(obs.FilterDelta)))
	if base1 == 0 {
		t.Skip("base dataset has no pairs at θ=0.1; adjust generator")
	}
	ratio := float64(scaled) / float64(base1)
	if ratio < 2.5 || ratio > 4.5 {
		t.Errorf("x3 scaling changed result size by %vx (want ≈3x: %d -> %d)", ratio, base1, scaled)
	}
	// Scaling by 1 is the identity.
	if got := dataset.Scale(base, 1, 200); len(got) != len(base) {
		t.Error("scale(1) changed the dataset")
	}
}

func TestProfilesProduceDistinctRegimes(t *testing.T) {
	d := dataset.DBLPLike.Config(1000, 10, 1)
	o := dataset.ORKULike.Config(1000, 10, 1)
	if d.Domain <= 0 || o.Domain <= 0 {
		t.Fatal("profiles produced empty domains")
	}
	if o.Skew <= d.Skew {
		t.Error("ORKU-like should be more skewed than DBLP-like")
	}
	if o.DupRate <= d.DupRate {
		t.Error("ORKU-like should have more near-duplicates")
	}
	small := dataset.DBLPLike.Config(1, 10, 1)
	if small.Domain < 40 {
		t.Errorf("domain clamp failed: %d", small.Domain)
	}
}
