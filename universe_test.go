package rankjoin_test

import (
	"fmt"
	"slices"
	"testing"

	"rankjoin"
)

// allTopK returns every top-k ranking over items 0..u-1: u!/(u−k)!
// rankings, ids in generation order.
func allTopK(k, u int) []*rankjoin.Ranking {
	var out []*rankjoin.Ranking
	items := make([]rankjoin.Item, 0, k)
	used := make([]bool, u)
	var walk func()
	walk = func() {
		if len(items) == k {
			r, err := rankjoin.NewRanking(int64(len(out)), slices.Clone(items))
			if err != nil {
				panic(err)
			}
			out = append(out, r)
			return
		}
		for it := range u {
			if !used[it] {
				used[it] = true
				items = append(items, rankjoin.Item(it))
				walk()
				items = items[:len(items)-1]
				used[it] = false
			}
		}
	}
	walk()
	return out
}

// TestExactOnEverySmallUniverse joins every top-k ranking over u items
// at every integer Footrule threshold F ∈ [0, k(k+1)], so each distance
// the universe holds sits on a threshold boundary once. Every join must
// return brute force's pairs, ids and distances, and its filter ledger
// must conserve and account for every pair. The universes are small
// enough to enumerate and hold the extremes random data rarely does:
// disjoint pairs at k(k+1), reversals, and rankings that differ in one
// item.
func TestExactOnEverySmallUniverse(t *testing.T) {
	type run struct {
		alg    rankjoin.Algorithm
		delta  int
		thetaC float64
	}
	runs := []run{
		{alg: rankjoin.AlgVJ}, {alg: rankjoin.AlgVJNL},
		{alg: rankjoin.AlgCL}, {alg: rankjoin.AlgCLP}, {alg: rankjoin.AlgCLP, delta: 2},
		{alg: rankjoin.AlgFSJoin}, {alg: rankjoin.AlgVSMART}, {alg: rankjoin.AlgClusterJoin},
	}
	for _, thetaC := range []float64{0.1, 0.3} {
		runs = append(runs, run{alg: rankjoin.AlgCL, thetaC: thetaC},
			run{alg: rankjoin.AlgCLP, thetaC: thetaC}, run{alg: rankjoin.AlgCLP, delta: 2, thetaC: thetaC})
	}
	e := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 2, DefaultPartitions: 3})
	defer e.Close()
	for _, ku := range [][2]int{{1, 3}, {2, 4}, {3, 5}} {
		k, u := ku[0], ku[1]
		rs := allTopK(k, u)
		maxF := rankjoin.MaxDistance(k)
		for f := 0; f <= maxF; f++ {
			theta := float64(f) / float64(maxF)
			want, err := e.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: theta})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				if r.thetaC > theta {
					continue
				}
				name := fmt.Sprintf("k=%d u=%d F=%d %v δ=%d θc=%v", k, u, f, r.alg, r.delta, r.thetaC)
				got, err := e.Join(rs, rankjoin.Options{Algorithm: r.alg, Theta: theta, ThetaC: r.thetaC, Delta: r.delta})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(got.Pairs, want.Pairs) {
					t.Errorf("%s: %d pairs, brute force %d; first difference %s",
						name, len(got.Pairs), len(want.Pairs), firstPairDiff(got.Pairs, want.Pairs))
				}
				if !got.Filters.Conserved() {
					t.Errorf("%s: ledger does not conserve: %v", name, got.Filters)
				}
				// Emitted counts pairs before deduplication, and FS-Join
				// emits each pair once, in its home segment.
				emitted, n := got.Filters.Emitted, int64(len(got.Pairs))
				if emitted < n || r.alg == rankjoin.AlgFSJoin && emitted != n {
					t.Errorf("%s: ledger emitted %d pairs for %d results", name, emitted, n)
				}
			}
		}
	}
}

// firstPairDiff describes where two sorted pair lists first disagree.
func firstPairDiff(got, want []rankjoin.Pair) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("at %d: %v, brute force %v", i, got[i], want[i])
		}
	}
	if len(got) > len(want) {
		return fmt.Sprintf("extra %v", got[len(want)])
	}
	if len(got) < len(want) {
		return fmt.Sprintf("missing %v", want[len(got)])
	}
	return "none"
}
