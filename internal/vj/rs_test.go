package vj_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
	"rankjoin/internal/vj"
)

func rsOracle(r, s []*rankings.Ranking, maxDist int) []rankings.Pair {
	var out []rankings.Pair
	for _, a := range r {
		for _, b := range s {
			if d, ok := rankings.FootruleWithin(a, b, maxDist); ok {
				out = append(out, rankings.Pair{A: a.ID, B: b.ID, Dist: d})
			}
		}
	}
	rankings.SortPairs(out)
	return out
}

// TestJoinRSMatchesOracle across random datasets, with and without
// repartitioning. Ids intentionally collide across the two sides.
func TestJoinRSMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		k := 4 + rng.Intn(8)
		dom := k + rng.Intn(4*k)
		r := testutil.RandDataset(rng, 30+rng.Intn(60), k, dom)
		s := testutil.RandDataset(rng, 30+rng.Intn(60), k, dom) // same id space
		theta := 0.05 + 0.4*rng.Float64()
		want := rsOracle(r, s, rankings.Threshold(theta, k))

		for _, o := range []vj.Options{
			{Theta: theta},
			{Theta: theta, Delta: 5},
		} {
			o.Partitions = 1 + rng.Intn(6)
			got, err := vj.JoinRS(ctx(1+rng.Intn(4)), r, s, o)
			if err != nil {
				t.Fatal(err)
			}
			if !samePairsExact(got, want) {
				t.Fatalf("trial %d opts %+v: got %d pairs, want %d\n got=%v\nwant=%v",
					trial, o, len(got), len(want), got, want)
			}
		}
	}
}

// samePairsExact compares without canonicalization — R-S pairs are
// side-ordered, not id-ordered.
func samePairsExact(a, b []rankings.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append([]rankings.Pair(nil), a...)
	bc := append([]rankings.Pair(nil), b...)
	rankings.SortPairs(ac)
	rankings.SortPairs(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

func TestJoinRSEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := testutil.RandDataset(rng, 10, 6, 30)
	if got, err := vj.JoinRS(ctx(2), r, nil, vj.Options{Theta: 0.3}); err != nil || len(got) != 0 {
		t.Errorf("empty S: %v %v", got, err)
	}
	if got, err := vj.JoinRS(ctx(2), nil, r, vj.Options{Theta: 0.3}); err != nil || len(got) != 0 {
		t.Errorf("empty R: %v %v", got, err)
	}
	// Identical rankings with identical ids across sides: a valid
	// (r, s) pair at distance 0.
	a := rankings.MustNew(5, []rankings.Item{1, 2, 3})
	b := rankings.MustNew(5, []rankings.Item{1, 2, 3})
	got, err := vj.JoinRS(ctx(1), []*rankings.Ranking{a}, []*rankings.Ranking{b}, vj.Options{Theta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].A != 5 || got[0].B != 5 || got[0].Dist != 0 {
		t.Errorf("colliding-id pair: %v", got)
	}
	// Mixed lengths rejected.
	c := rankings.MustNew(6, []rankings.Item{1, 2})
	if _, err := vj.JoinRS(ctx(1), []*rankings.Ranking{a}, []*rankings.Ranking{c}, vj.Options{Theta: 0.1}); err == nil {
		t.Error("mixed lengths accepted")
	}
}

// TestJoinRSNoSelfPairs: pairs within one side must never appear.
func TestJoinRSNoSelfPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := 8
	// R contains two identical rankings — their pair must NOT appear.
	r := []*rankings.Ranking{
		rankings.MustNew(1, []rankings.Item{1, 2, 3, 4, 5, 6, 7, 8}),
		rankings.MustNew(2, []rankings.Item{1, 2, 3, 4, 5, 6, 7, 8}),
	}
	s := testutil.RandDataset(rng, 20, k, 3*k)
	for _, x := range s {
		x.ID += 100 // S ids apart from R's, so a pair's sides show in its ids
	}
	got, err := vj.JoinRS(ctx(2), r, s, vj.Options{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		if p.A != 1 && p.A != 2 || p.B < 100 {
			t.Errorf("pair %v is not (R side, S side)", p)
		}
	}
}

// TestJoinRSDegenerateTheta: θ=1 admits zero-overlap pairs, which only
// the catch-all group can deliver.
func TestJoinRSDegenerateTheta(t *testing.T) {
	r := []*rankings.Ranking{rankings.MustNew(1, []rankings.Item{1, 2, 3})}
	s := []*rankings.Ranking{rankings.MustNew(2, []rankings.Item{7, 8, 9})}
	got, err := vj.JoinRS(ctx(1), r, s, vj.Options{Theta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Dist != rankings.MaxFootrule(3) {
		t.Errorf("disjoint pair at θ=1: %v", got)
	}
}
