package rankjoin_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"rankjoin"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// allAlgorithms are the self-join algorithms exercised by the
// degenerate-input sweeps.
var allAlgorithms = []rankjoin.Algorithm{
	rankjoin.AlgBruteForce, rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL,
	rankjoin.AlgCLP, rankjoin.AlgVSMART, rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin,
}

// TestJoinRSAlgorithmReporting pins the JoinRS contract: the result
// reports the algorithm that actually executed (not whatever the
// caller happened to leave in Options), and self-join-only algorithms
// are refused with the typed error instead of silently running
// something else.
func TestJoinRSAlgorithmReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := testutil.RandDataset(rng, 15, 5, 30)
	s := testutil.RandDataset(rng, 15, 5, 30)

	oracle, err := rankjoin.JoinRS(r, s, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Algorithm != rankjoin.AlgBruteForce {
		t.Errorf("brute-force R-S labeled %v", oracle.Algorithm)
	}

	// The default pipeline is VJ-NL and must say so — historically the
	// result was stamped with the requested algorithm even though the
	// request was ignored.
	for _, req := range []rankjoin.Algorithm{rankjoin.AlgCL, rankjoin.AlgVJ, rankjoin.AlgVJNL} {
		res, err := rankjoin.JoinRS(r, s, rankjoin.Options{Algorithm: req, Theta: 0.4})
		if err != nil {
			t.Fatalf("%v: %v", req, err)
		}
		if res.Algorithm != rankjoin.AlgVJNL {
			t.Errorf("requested %v: result labeled %v, want %v (the executed pipeline)",
				req, res.Algorithm, rankjoin.AlgVJNL)
		}
		if !rankings.SamePairs(res.Pairs, oracle.Pairs) {
			t.Errorf("requested %v: pairs disagree with the R×S oracle", req)
		}
	}

	for _, req := range []rankjoin.Algorithm{
		rankjoin.AlgCLP, rankjoin.AlgVSMART, rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin,
	} {
		_, err := rankjoin.JoinRS(r, s, rankjoin.Options{Algorithm: req, Theta: 0.4, Delta: 8})
		if !errors.Is(err, rankjoin.ErrSelfJoinOnly) {
			t.Errorf("requested %v over R-S: err = %v, want ErrSelfJoinOnly", req, err)
		}
	}
}

// TestTypedValidationErrors pins the entry-point validation added to
// Join, JoinRS and SuggestDelta: mixed ranking lengths and duplicate
// ids are typed errors everywhere, for every algorithm — not
// algorithm-dependent silent misbehavior.
func TestTypedValidationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := testutil.RandDataset(rng, 10, 4, 25)
	mixed := append(append([]*rankjoin.Ranking(nil), rs...), testutil.RandRanking(rng, 99, 7, 25))
	dup := append(append([]*rankjoin.Ranking(nil), rs...), testutil.RandRanking(rng, rs[0].ID, 4, 25))

	for _, alg := range allAlgorithms {
		if _, err := rankjoin.Join(mixed, rankjoin.Options{Algorithm: alg, Theta: 0.3, Delta: 4}); !errors.Is(err, rankjoin.ErrMixedLengths) {
			t.Errorf("%v over mixed lengths: err = %v, want ErrMixedLengths", alg, err)
		}
		if _, err := rankjoin.Join(dup, rankjoin.Options{Algorithm: alg, Theta: 0.3, Delta: 4}); !errors.Is(err, rankjoin.ErrDuplicateID) {
			t.Errorf("%v over duplicate ids: err = %v, want ErrDuplicateID", alg, err)
		}
	}

	if _, err := rankjoin.JoinRS(mixed, rs, rankjoin.Options{Theta: 0.3}); !errors.Is(err, rankjoin.ErrMixedLengths) {
		t.Errorf("JoinRS mixed lengths: err = %v, want ErrMixedLengths", err)
	}
	if _, err := rankjoin.JoinRS(dup, rs, rankjoin.Options{Theta: 0.3}); !errors.Is(err, rankjoin.ErrDuplicateID) {
		t.Errorf("JoinRS duplicate R-side ids: err = %v, want ErrDuplicateID", err)
	}
	if _, err := rankjoin.JoinRS(rs, dup, rankjoin.Options{Theta: 0.3}); !errors.Is(err, rankjoin.ErrDuplicateID) {
		t.Errorf("JoinRS duplicate S-side ids: err = %v, want ErrDuplicateID", err)
	}
	// The same id on both sides is legal: R and S are independent id
	// spaces (the weekly-snapshot use case joins a user to themselves).
	if _, err := rankjoin.JoinRS(rs, rs, rankjoin.Options{Theta: 0.3}); err != nil {
		t.Errorf("JoinRS with shared ids across sides: %v", err)
	}

	if _, err := rankjoin.SuggestDelta(mixed, 0.3); !errors.Is(err, rankjoin.ErrMixedLengths) {
		t.Errorf("SuggestDelta mixed lengths: err = %v, want ErrMixedLengths", err)
	}
	if _, err := rankjoin.SuggestDelta(rs, 1.5); !errors.Is(err, rankjoin.ErrThetaRange) {
		t.Errorf("SuggestDelta theta 1.5: err = %v, want ErrThetaRange", err)
	}
	if _, err := rankjoin.BuildIndex(dup); !errors.Is(err, rankjoin.ErrDuplicateID) {
		t.Errorf("BuildIndex duplicate ids: err = %v, want ErrDuplicateID", err)
	}
}

// TestThetaRange: every entry point that takes a θ refuses one outside
// [0, 1] with ErrThetaRange — NaN included, which no `θ < 0 || θ > 1`
// comparison catches and whose int conversion is platform-defined — and
// accepts both ends of the range.
func TestThetaRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := testutil.RandDataset(rng, 10, 4, 25)
	idx, err := rankjoin.BuildIndex(rs)
	if err != nil {
		t.Fatal(err)
	}
	sharded := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{})
	for _, r := range rs {
		if err := sharded.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	entries := map[string]func(theta float64) error{
		"JoinRS":              func(th float64) error { _, err := rankjoin.JoinRS(rs, rs, rankjoin.Options{Theta: th}); return err },
		"Index.Search":        func(th float64) error { _, err := idx.Search(rs[0], th); return err },
		"ShardedIndex.Search": func(th float64) error { _, err := sharded.Search(rs[0], th); return err },
		"SuggestDelta":        func(th float64) error { _, err := rankjoin.SuggestDelta(rs, th); return err },
	}
	for _, alg := range allAlgorithms {
		entries["Join/"+alg.String()] = func(th float64) error {
			_, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: alg, Theta: th})
			return err
		}
	}
	for name, call := range entries {
		for _, theta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0001, 1.0001} {
			if err := call(theta); !errors.Is(err, rankjoin.ErrThetaRange) {
				t.Errorf("%s θ=%v: err = %v, want ErrThetaRange", name, theta, err)
			}
		}
		for _, theta := range []float64{0, 1} {
			if err := call(theta); err != nil {
				t.Errorf("%s θ=%v: %v", name, theta, err)
			}
		}
	}
}

// TestDegenerateInputs sweeps the corner configurations every
// algorithm must agree on: k = 1, θ exactly 0 and exactly 1, and CL-P
// with δ at least as large as any posting-list group (nothing
// repartitions, the small-group path must carry the whole join).
func TestDegenerateInputs(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		theta float64
		delta int
	}{
		{name: "k1_theta_zero", k: 1, theta: 0, delta: 2},
		{name: "k1_theta_one", k: 1, theta: 1, delta: 2},
		{name: "k1_interior", k: 1, theta: 0.5, delta: 2},
		{name: "theta_zero", k: 6, theta: 0, delta: 3},
		{name: "theta_one", k: 6, theta: 1, delta: 3},
		{name: "delta_ge_group", k: 6, theta: 0.3, delta: 1 << 20},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			rs := testutil.RandDataset(rng, 24, tc.k, 3*tc.k)
			// Duplicates force distance-0 pairs through the θ=0 sweeps.
			rs = testutil.WithDuplicates(rng, rs, 6)
			ref, err := rankjoin.Join(rs, rankjoin.Options{
				Algorithm: rankjoin.AlgBruteForce, Theta: tc.theta,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.theta == 1 {
				want := len(rs) * (len(rs) - 1) / 2
				if len(ref.Pairs) != want {
					t.Fatalf("θ=1 must admit all %d pairs, oracle found %d", want, len(ref.Pairs))
				}
			}
			if tc.theta == 0 && len(ref.Pairs) == 0 {
				t.Fatal("θ=0 with duplicates must still find distance-0 pairs")
			}
			for _, alg := range allAlgorithms[1:] {
				res, err := rankjoin.Join(rs, rankjoin.Options{
					Algorithm: alg, Theta: tc.theta, Delta: tc.delta,
				})
				if err != nil {
					t.Errorf("%v: %v", alg, err)
					continue
				}
				if !rankings.SamePairs(res.Pairs, ref.Pairs) {
					t.Errorf("%v disagrees with brute force (%d vs %d pairs)",
						alg, len(res.Pairs), len(ref.Pairs))
				}
			}
		})
	}
}

// TestJoinRSEmptySides: an empty R or S side is a valid join with an
// empty result, not an error.
func TestJoinRSEmptySides(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rs := testutil.RandDataset(rng, 8, 4, 20)
	for _, tc := range []struct {
		name string
		r, s []*rankjoin.Ranking
	}{
		{"empty_r", nil, rs},
		{"empty_s", rs, nil},
		{"both_empty", nil, nil},
	} {
		res, err := rankjoin.JoinRS(tc.r, tc.s, rankjoin.Options{Theta: 0.5})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(res.Pairs) != 0 {
			t.Errorf("%s: %d pairs, want 0", tc.name, len(res.Pairs))
		}
	}
}
