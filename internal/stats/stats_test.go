package stats_test

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"

	"rankjoin/internal/dataset"
	"rankjoin/internal/rankings"
	"rankjoin/internal/stats"
	"rankjoin/internal/testutil"
)

func TestExpectedPostingListLength(t *testing.T) {
	// Uniform items: E = Σ n·(1/v)² = n/v — the obvious average.
	if got, want := stats.ExpectedPostingListLength(1000, 0, 100), 10.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("uniform estimate %v, want %v", got, want)
	}
	// Skew inflates the estimate: the head items dominate.
	uniform := stats.ExpectedPostingListLength(1000, 0, 100)
	skewed := stats.ExpectedPostingListLength(1000, 1.0, 100)
	if skewed <= uniform {
		t.Errorf("skewed estimate %v not above uniform %v", skewed, uniform)
	}
	if stats.ExpectedPostingListLength(0, 1, 10) != 0 {
		t.Error("zero rankings should estimate 0")
	}
	if stats.ExpectedPostingListLength(10, 1, 0) != 0 {
		t.Error("empty vocabulary should estimate 0")
	}
}

// TestExpectedPostingListLengthMatchesDefinition holds the O(v') sum to
// the paper's definition, Σ n·f(i; s, v')² with f the Zipf probability
// i^-s / H(v', s) evaluated per term — the quadratic form the planner
// used to evaluate — bit for bit: hoisting H(v', s) out of the sum must
// not move a single δ.
func TestExpectedPostingListLengthMatchesDefinition(t *testing.T) {
	naive := func(n int, s float64, v int) float64 {
		sum := 0.0
		for i := 1; i <= v; i++ {
			h := 0.0
			for j := 1; j <= v; j++ {
				h += math.Pow(float64(j), -s)
			}
			f := math.Pow(float64(i), -s) / h
			sum += float64(n) * f * f
		}
		return sum
	}
	check := func(n int, s float64, v int) {
		got, want := stats.ExpectedPostingListLength(n, s, v), naive(n, s, v)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d s=%v v'=%d: got %v, definition gives %v", n, s, v, got, want)
		}
	}
	for _, n := range []int{1, 5500 * 3, 1 << 20} {
		for _, s := range []float64{0, 0.2, 0.85, 1, 1.05, 2.5} {
			for _, v := range []int{1, 2, 3, 10, 257, 1000} {
				check(n, s, v)
			}
		}
	}
	// The planner's actual inputs on DBLP-like n=5500, θ=0.1, seed 1.
	check(5500*3, 0.9346018453409534, 3183)
}

// TestPlannerScalesLinearly guards the planner's complexity by its own
// claim: ten times the prefix vocabulary costs about ten times the
// time. The best of five runs at each size is compared, so a loaded
// box or the race detector slows both sides alike; one pass measures a
// ratio near 10, the quadratic sum (H recomputed per term) near 100.
// The sizes are small enough that the quadratic sum finishes, in about
// three minutes, and so fails rather than hangs.
func TestPlannerScalesLinearly(t *testing.T) {
	best := func(v int) time.Duration {
		var fastest time.Duration
		for range 5 {
			start := time.Now()
			if est := stats.ExpectedPostingListLength(10_000_000, 0.9, v); est <= 0 {
				t.Fatalf("v'=%d: estimate %v, want positive", v, est)
			}
			if took := time.Since(start); fastest == 0 || took < fastest {
				fastest = took
			}
		}
		return fastest
	}
	small, large := best(2_000), best(20_000)
	if ratio := float64(large) / float64(small); ratio > 30 {
		t.Errorf("v'=20000 took %v, v'=2000 took %v: ratio %.1f, want about 10 (≤ 30)", large, small, ratio)
	}
}

// TestPlanDeltaAgreesWithItsParts: the plan is exactly Equation 4 over
// the fitted skew and the prefix vocabulary — the distinct items among
// every ranking's `prefix` rarest, ties by id — times four, floored
// at 16.
func TestPlanDeltaAgreesWithItsParts(t *testing.T) {
	rs, err := dataset.Generate(dataset.DBLPLike.Config(1200, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	counts := rankings.ItemCounts(rs)
	renumbered := testutil.Renumber(rs)
	skew := stats.EstimateSkew(counts)
	for _, prefix := range []int{1, 3, 6, 10, 12} {
		seen := map[rankings.Item]struct{}{}
		for _, r := range rs {
			items := slices.Clone(r.Items)
			slices.SortFunc(items, func(a, b rankings.Item) int {
				return cmp.Or(cmp.Compare(counts[a], counts[b]), cmp.Compare(a, b))
			})
			for _, it := range items[:min(prefix, len(items))] {
				seen[it] = struct{}{}
			}
		}
		if got := stats.PrefixVocabulary(renumbered, prefix); got != len(seen) {
			t.Errorf("prefix %d: v' = %d, the rarest items number %d", prefix, got, len(seen))
		}
		delta, predicted := stats.PlanDelta(renumbered, counts, prefix)
		if want := stats.ExpectedPostingListLength(len(rs)*prefix, skew, len(seen)); predicted != want {
			t.Errorf("prefix %d: predicted %v, want %v", prefix, predicted, want)
		}
		if want := max(int(4*predicted), 16); delta != want {
			t.Errorf("prefix %d: delta %d, want %d", prefix, delta, want)
		}
	}
	if delta, _ := stats.PlanDelta(nil, nil, 1); delta != 16 {
		t.Errorf("empty dataset plans %d, want the floor 16", delta)
	}
}

// TestEstimateAgainstEmpiricalPostingLists: the Equation 4 estimate
// must land in the right ballpark of the true average posting-list
// length of a generated Zipf dataset (within a small factor — it is a
// guidance formula, not an exact law).
func TestEstimateAgainstEmpiricalPostingLists(t *testing.T) {
	rs, err := dataset.Generate(dataset.GenConfig{
		N: 4000, K: 10, Domain: 2000, Skew: 0.9, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := rankings.ItemCounts(rs)
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	empirical := float64(0)
	for _, c := range counts {
		empirical += float64(c) * float64(c)
	}
	empirical /= float64(total) // length-weighted average posting list
	est := stats.ExpectedPostingListLength(int(total), stats.EstimateSkew(counts), len(counts))
	ratio := est / empirical
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("estimate %v vs empirical %v (ratio %v) — formula off by more than 5x", est, empirical, ratio)
	}
}

func TestEstimateSkewRecoversGenerator(t *testing.T) {
	for _, s := range []float64{0.6, 0.9, 1.2} {
		rs, err := dataset.Generate(dataset.GenConfig{
			N: 6000, K: 10, Domain: 3000, Skew: s, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := stats.EstimateSkew(rankings.ItemCounts(rs))
		if math.Abs(got-s) > 0.35 {
			t.Errorf("skew %v estimated as %v", s, got)
		}
	}
	if stats.EstimateSkew(nil) != 0 {
		t.Error("empty counts should estimate 0")
	}
	if stats.EstimateSkew(map[rankings.Item]int64{1: 5}) != 0 {
		t.Error("single item should estimate 0")
	}
}

func TestPrefixVocabulary(t *testing.T) {
	rs := []*rankings.Ranking{
		rankings.MustNew(0, []rankings.Item{1, 2, 3}),
		rankings.MustNew(1, []rankings.Item{2, 3, 4}),
	}
	renumbered := testutil.Renumber(rs)
	if got := stats.PrefixVocabulary(renumbered, 3); got != 4 {
		t.Errorf("full vocabulary = %d, want 4", got)
	}
	// Items 1 and 4 are the rarest of their rankings.
	if got := stats.PrefixVocabulary(renumbered, 1); got != 2 {
		t.Errorf("prefix-1 vocabulary = %d, want 2", got)
	}
}
