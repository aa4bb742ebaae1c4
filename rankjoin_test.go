package rankjoin_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rankjoin"
	"rankjoin/internal/dataset"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

func sample(t *testing.T, seed int64, n, k, dom int) []*rankjoin.Ranking {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return testutil.ClusteredDataset(rng, n/4, 3, k, dom)
}

// TestAllAlgorithmsAgree: the public API's five algorithms return the
// same result set.
func TestAllAlgorithmsAgree(t *testing.T) {
	rs := sample(t, 1, 80, 10, 80)
	ref, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Pairs) == 0 {
		t.Fatal("degenerate sample: no pairs")
	}
	for _, alg := range []rankjoin.Algorithm{
		rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL, rankjoin.AlgCLP,
		rankjoin.AlgVSMART, rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin,
	} {
		res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: alg, Theta: 0.25})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !rankings.SamePairs(res.Pairs, ref.Pairs) {
			t.Errorf("%v disagrees with brute force", alg)
		}
		if res.Algorithm != alg {
			t.Errorf("result algorithm = %v, want %v", res.Algorithm, alg)
		}
	}
}

func TestJoinValidation(t *testing.T) {
	rs := sample(t, 2, 20, 8, 60)
	if _, err := rankjoin.Join(rs, rankjoin.Options{Theta: -1}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.Algorithm(99), Theta: 0.2}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	res, err := rankjoin.Join(nil, rankjoin.Options{Theta: 0.2})
	if err != nil || len(res.Pairs) != 0 {
		t.Errorf("empty input: %v %v", res, err)
	}
}

func TestStatsExposed(t *testing.T) {
	rs := sample(t, 3, 80, 10, 80)
	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.3, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.CL == nil || res.CL.Results != int64(len(res.Pairs)) {
		t.Errorf("CL stats missing or inconsistent: %v", res.CL)
	}
	if res.Engine.ShuffleRecords == 0 {
		t.Error("engine metrics empty")
	}

	res, err = rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgVJNL, Theta: 0.3, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel == nil || res.Kernel.Generated == 0 {
		t.Errorf("VJ kernel stats missing: %v", res.Kernel)
	}
}

// TestEngineReuse runs one engine twice against a fresh engine's answer:
// a reused engine must neither drift in its pairs nor carry counters
// over from the previous run.
func TestEngineReuse(t *testing.T) {
	rs := sample(t, 4, 60, 8, 60)
	e := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 2})
	opts := rankjoin.Options{Theta: 0.25, Stats: true}
	ref, err := rankjoin.Join(rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := e.Join(rs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rankings.SamePairs(res.Pairs, ref.Pairs) {
			t.Fatalf("reused engine run %d diverged", i)
		}
		if res.Engine.Tasks != ref.Engine.Tasks {
			t.Errorf("run %d: %d tasks, fresh engine ran %d", i, res.Engine.Tasks, ref.Engine.Tasks)
		}
	}
}

func TestNewRankingAndDistances(t *testing.T) {
	a, err := rankjoin.NewRanking(1, []rankjoin.Item{2, 5, 4, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rankjoin.NewRanking(2, []rankjoin.Item{1, 4, 5, 9, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d := rankjoin.Footrule(a, b); d != 16 {
		t.Errorf("paper example distance %d, want 16", d)
	}
	if n := rankjoin.FootruleNorm(a, b); n != 16.0/30.0 {
		t.Errorf("normalized %v", n)
	}
	if rankjoin.MaxDistance(5) != 30 {
		t.Error("max distance")
	}
	if _, err := rankjoin.NewRanking(1, []rankjoin.Item{1, 1}); err == nil {
		t.Error("duplicate items accepted")
	}
}

func TestReadWriteRankings(t *testing.T) {
	in := "0: 1 2 3\n1: 3 2 1\n"
	rs, err := rankjoin.ReadRankings(strings.NewReader(in))
	if err != nil || len(rs) != 2 {
		t.Fatalf("%v %v", rs, err)
	}
	var buf bytes.Buffer
	if err := rankjoin.WriteRankings(&buf, rs); err != nil {
		t.Fatal(err)
	}
	back, err := rankjoin.ReadRankings(&buf)
	if err != nil || len(back) != 2 {
		t.Fatalf("round trip: %v %v", back, err)
	}
}

func TestSuggestDelta(t *testing.T) {
	rs := sample(t, 5, 100, 10, 100)
	d, err := rankjoin.SuggestDelta(rs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if d < 16 {
		t.Errorf("delta %d", d)
	}
	if d, err := rankjoin.SuggestDelta(nil, 0.3); err != nil || d != 16 {
		t.Errorf("empty dataset: delta %d err %v, want floor 16", d, err)
	}
	// Mixed ranking lengths would make the Equation 4 estimate
	// meaningless (prefix size keys off rs[0].K()); it must be a typed
	// error, not a silent nonsense δ.
	mixed := []*rankjoin.Ranking{
		mustRanking(t, 1, []rankjoin.Item{1, 2, 3}),
		mustRanking(t, 2, []rankjoin.Item{1, 2, 3, 4, 5}),
	}
	if _, err := rankjoin.SuggestDelta(mixed, 0.3); !errors.Is(err, rankjoin.ErrMixedLengths) {
		t.Errorf("mixed-k SuggestDelta: err %v, want ErrMixedLengths", err)
	}
	if _, err := rankjoin.SuggestDelta(rs, 1.5); !errors.Is(err, rankjoin.ErrThetaRange) {
		t.Errorf("theta out of range: err %v, want ErrThetaRange", err)
	}
}

// TestAutoDeltaGoldenPins pins the δ the planner suggests on three
// generated datasets (the values the quadratic planner produced before
// Equation 4 became one pass) and holds an auto-δ CL-P join to them:
// the δ core.Stats reports is the δ SuggestDelta returns, and the pairs
// are those of the same join handed that δ explicitly.
func TestAutoDeltaGoldenPins(t *testing.T) {
	for _, c := range []struct {
		prof  dataset.Profile
		n     int
		theta float64
		delta int
	}{
		{dataset.DBLPLike, 5500, 0.1, 940},
		{dataset.ORKULike, 6000, 0.3, 4143},
		{dataset.DBLPLike, 16000, 0.1, 1956},
	} {
		rs, err := dataset.Generate(c.prof.Config(c.n, 10, 1))
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s n=%d θ=%v", c.prof.Name, c.n, c.theta)
		suggested, err := rankjoin.SuggestDelta(rs, c.theta)
		if err != nil {
			t.Fatal(err)
		}
		if suggested != c.delta {
			t.Errorf("%s: SuggestDelta = %d, want %d", name, suggested, c.delta)
		}
		auto, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: c.theta, Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		if auto.CL.Delta != suggested {
			t.Errorf("%s: auto-δ join ran with δ=%d, SuggestDelta says %d", name, auto.CL.Delta, suggested)
		}
		mean, longest := auto.CL.ObservedListLen()
		if auto.CL.PredictedListLen <= 0 || mean <= 0 || longest < int64(mean) {
			t.Errorf("%s: model report incomplete: %s", name, auto.CL.DeltaReport())
		}
		given, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: c.theta, Delta: c.delta, Stats: true})
		if err != nil {
			t.Fatal(err)
		}
		if given.CL.Delta != c.delta || given.CL.PredictedListLen != 0 {
			t.Errorf("%s: explicit δ must be recorded as given and unplanned: %s", name, given.CL.DeltaReport())
		}
		if !rankings.SamePairs(auto.Pairs, given.Pairs) {
			t.Errorf("%s: auto-δ pairs differ from explicit δ=%d pairs", name, c.delta)
		}
		if auto.Filters != given.Filters {
			t.Errorf("%s: filter ledgers differ: auto %+v, explicit %+v", name, auto.Filters, given.Filters)
		}
	}
	plain, err := rankjoin.Join(sample(t, 5, 100, 10, 100), rankjoin.Options{Theta: 0.3, Stats: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.CL.Delta != 0 || plain.CL.PredictedListLen != 0 {
		t.Errorf("plain CL must report no δ: %s", plain.CL.DeltaReport())
	}
}

func mustRanking(t *testing.T, id int64, items []rankjoin.Item) *rankjoin.Ranking {
	t.Helper()
	r, err := rankjoin.NewRanking(id, items)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestJoinSets(t *testing.T) {
	sets := map[int64][]int32{
		1: {1, 2, 3, 4},
		2: {1, 2, 3, 5},
		3: {7, 8, 9},
	}
	pairs, err := rankjoin.JoinSets(sets, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].A != 1 || pairs[0].B != 2 {
		t.Errorf("set join = %v", pairs)
	}
	if sim := rankjoin.JaccardSim([]int32{1, 2}, []int32{2, 3}); sim != 1.0/3.0 {
		t.Errorf("jaccard %v", sim)
	}
	if _, err := rankjoin.JoinSets(sets, 0); err == nil {
		t.Error("zero threshold accepted")
	}
}

// TestAutoDeltaCLP: CL-P with Delta 0 derives δ from Equation 4 and
// still returns exact results.
func TestAutoDeltaCLP(t *testing.T) {
	rs := sample(t, 6, 100, 10, 90)
	ref, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCLP, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !rankings.SamePairs(res.Pairs, ref.Pairs) {
		t.Error("auto-delta CL-P diverged")
	}
}
