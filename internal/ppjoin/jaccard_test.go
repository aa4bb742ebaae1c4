package ppjoin_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankjoin/internal/obs"
	"rankjoin/internal/ppjoin"
)

func randSets(rng *rand.Rand, n, maxLen, domain int) map[int64][]int32 {
	raw := map[int64][]int32{}
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(maxLen)
		toks := make([]int32, l)
		for j := range toks {
			toks[j] = int32(rng.Intn(domain))
		}
		raw[int64(i)] = toks
	}
	return raw
}

func sameSetPairs(a, b []ppjoin.SetPair) bool {
	norm := func(ps []ppjoin.SetPair) []ppjoin.SetPair {
		c := append([]ppjoin.SetPair(nil), ps...)
		sort.Slice(c, func(i, j int) bool {
			if c[i].A != c[j].A {
				return c[i].A < c[j].A
			}
			return c[i].B < c[j].B
		})
		return c
	}
	a, b = norm(a), norm(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B || math.Abs(a[i].Sim-b[i].Sim) > 1e-12 {
			return false
		}
	}
	return true
}

func TestJaccardBasics(t *testing.T) {
	if got := ppjoin.Jaccard([]int32{1, 2, 3}, []int32{2, 3, 4}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("jaccard = %v, want 0.5", got)
	}
	if got := ppjoin.Jaccard(nil, nil); got != 1 {
		t.Errorf("jaccard(∅,∅) = %v, want 1", got)
	}
	if got := ppjoin.Jaccard([]int32{1}, nil); got != 0 {
		t.Errorf("jaccard({1},∅) = %v, want 0", got)
	}
}

func TestBuildSetRecordsCanonical(t *testing.T) {
	raw := map[int64][]int32{
		0: {5, 5, 1, 2},
		1: {2, 3},
		2: {2},
	}
	recs := ppjoin.BuildSetRecords(raw)
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
	// Sorted by length ascending.
	if len(recs[0].Tokens) > len(recs[1].Tokens) || len(recs[1].Tokens) > len(recs[2].Tokens) {
		t.Errorf("not length sorted: %v", recs)
	}
	// Record 0 deduplicated.
	for _, r := range recs {
		if r.ID == 0 && len(r.Tokens) != 3 {
			t.Errorf("dedup failed: %v", r.Tokens)
		}
		// Rare tokens (freq 1) come before token 2 (freq 3).
		if r.ID == 0 && r.Tokens[len(r.Tokens)-1] != 2 {
			t.Errorf("canonical order wrong: %v", r.Tokens)
		}
	}
}

func TestJaccardJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		raw := randSets(rng, 30+rng.Intn(50), 2+rng.Intn(12), 5+rng.Intn(30))
		recs := ppjoin.BuildSetRecords(raw)
		for _, th := range []float64{0.3, 0.5, 0.7, 0.9, 1.0} {
			want := ppjoin.JaccardBruteForce(recs, th)
			got, err := ppjoin.JaccardJoin(recs, th, new(obs.FilterDelta))
			if err != nil {
				t.Fatal(err)
			}
			if !sameSetPairs(got, want) {
				t.Fatalf("trial %d th=%v: join %d pairs, oracle %d", trial, th, len(got), len(want))
			}
		}
	}
}

func TestJaccardJoinRejectsBadThreshold(t *testing.T) {
	for _, th := range []float64{0, -1, 1.5} {
		if _, err := ppjoin.JaccardJoin(nil, th, new(obs.FilterDelta)); err == nil {
			t.Errorf("threshold %v accepted", th)
		}
	}
}

func TestJaccardJoinStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	recs := ppjoin.BuildSetRecords(randSets(rng, 60, 8, 20))
	var st obs.FilterDelta
	got, err := ppjoin.JaccardJoin(recs, 0.5, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Emitted != int64(len(got)) {
		t.Errorf("stats results %d vs %d", st.Emitted, len(got))
	}
	if st.Generated < st.Emitted {
		t.Errorf("candidates %d < results %d", st.Generated, st.Emitted)
	}
}
