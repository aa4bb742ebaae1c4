package filters_test

import (
	"math/rand"
	"testing"

	"rankjoin/internal/filters"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// assertAdmissible certifies the two signature-prefilter contracts on
// one pair: the overlap upper bound dominates the true overlap, and
// the induced Footrule lower bound never exceeds the true distance —
// so SignaturePrune can never reject a pair with Footrule ≤ maxDist.
func assertAdmissible(t *testing.T, a, b *rankings.Ranking) {
	t.Helper()
	k := a.K()
	sa, pa := a.Signature()
	sb, pb := b.Signature()
	ub := filters.OverlapUpperBound(sa, pa, sb, pb, k)
	if ov := rankings.Overlap(a, b); ub < ov {
		t.Fatalf("overlap bound %d < true overlap %d for %v vs %v", ub, ov, a, b)
	}
	lb := filters.MinDistForOverlap(ub, k)
	if d := rankings.Footrule(a, b); lb > d {
		t.Fatalf("signature lower bound %d > Footrule %d for %v vs %v", lb, d, a, b)
	}
	// SignaturePrune must agree with the bound it is defined by: prune
	// exactly when the lower bound exceeds the threshold.
	for _, maxDist := range []int{0, lb - 1, lb, lb + 1, rankings.MaxFootrule(k)} {
		if maxDist < 0 {
			continue
		}
		got := filters.SignaturePrune(sa, pa, sb, pb, k, maxDist)
		if want := lb > maxDist; got != want {
			t.Fatalf("SignaturePrune(maxDist=%d)=%v, bound says %v (lb=%d)", maxDist, got, want, lb)
		}
	}
}

// TestSignatureAdmissible sweeps the regimes the serving and join
// paths hand the prefilter: tiny k, paper-scale k, dense and sparse
// domains (dense domains maximize hash collisions inside a signature,
// the case the popcount correction exists for), and clustered
// near-duplicates where the bound must stay above real result pairs.
func TestSignatureAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 5, 10, 25, 64, 80} {
		for _, domain := range []int{k, 2 * k, 10 * k, 1 << 20} {
			for trial := 0; trial < 400; trial++ {
				a := testutil.RandRanking(rng, 1, k, domain)
				b := testutil.RandRanking(rng, 2, k, domain)
				assertAdmissible(t, a, b)
			}
		}
	}
	// Near-duplicate clusters: overlap k or k-1, distance near zero —
	// the pairs a serving query must never lose.
	for _, k := range []int{5, 10, 25} {
		for _, r := range testutil.ClusteredDataset(rng, 40, 5, k, 30*k) {
			for _, s := range testutil.ClusteredDataset(rng, 1, 4, k, 30*k) {
				assertAdmissible(t, r, s)
			}
			assertAdmissible(t, r, r)
		}
	}
}

// TestSignatureUnindexedMatchesIndexed pins the accessor contract:
// the on-the-fly signature of an unindexed ranking equals the cached
// one after Index.
func TestSignatureUnindexedMatchesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		r := testutil.RandRanking(rng, int64(trial), 10, 40)
		fresh := r.Clone() // drops the index
		if fresh.Indexed() {
			t.Fatal("clone unexpectedly indexed")
		}
		s1, p1 := fresh.Signature()
		s2, p2 := r.Signature()
		if s1 != s2 || p1 != p2 {
			t.Fatalf("unindexed signature (%x,%d) != indexed (%x,%d)", s1, p1, s2, p2)
		}
	}
}

// FuzzSignatureAdmissible drives the admissibility contract from
// arbitrary item bytes: any two duplicate-free equal-length item sets
// the fuzzer can construct must satisfy bound domination.
func FuzzSignatureAdmissible(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{3, 4, 5, 6})
	f.Add([]byte{0}, []byte{255})
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, []byte{10, 20, 30, 40, 50, 60, 70, 81})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := rankingFromBytes(1, rawA)
		if a == nil {
			t.Skip()
		}
		b := rankingFromBytes(2, rawB)
		if b == nil || b.K() != a.K() {
			t.Skip()
		}
		a.Index()
		b.Index()
		assertAdmissible(t, a, b)
	})
}

// rankingFromBytes builds a duplicate-free ranking from fuzz bytes,
// spreading consecutive bytes across a wider id space so signatures
// see varied bit positions; nil when the bytes cannot form one.
func rankingFromBytes(id int64, raw []byte) *rankings.Ranking {
	if len(raw) == 0 || len(raw) > 64 {
		return nil
	}
	items := make([]rankings.Item, 0, len(raw))
	seen := make(map[rankings.Item]struct{}, len(raw))
	for i, c := range raw {
		it := rankings.Item(int32(c) + int32(i%3)*251)
		if _, dup := seen[it]; dup {
			return nil
		}
		seen[it] = struct{}{}
		items = append(items, it)
	}
	return rankings.MustNew(id, items)
}
