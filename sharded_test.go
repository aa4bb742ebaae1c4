package rankjoin_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rankjoin"
	"rankjoin/internal/testutil"
)

// TestShardedIndexMatchesBruteForce: the dynamic index must answer
// range queries with exactly each ranking's brute-force join partners.
func TestShardedIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rs := testutil.ClusteredDataset(rng, 20, 4, 8, 60)
	dyn := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{Shards: 4})
	for _, r := range rs {
		if err := dyn.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if dyn.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", dyn.Len(), len(rs))
	}
	const theta = 0.25
	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64][]rankjoin.Pair{}
	for _, p := range res.Pairs {
		want[p.A] = append(want[p.A], p)
		want[p.B] = append(want[p.B], p)
	}
	for _, q := range rs {
		slices.SortFunc(want[q.ID], comparePairsByDist)
		got, err := dyn.Search(q, theta)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want[q.ID]) {
			t.Fatalf("query %d: sharded %d hits, brute force %d", q.ID, len(got), len(want[q.ID]))
		}
		for i := range got {
			if got[i] != want[q.ID][i] {
				t.Fatalf("query %d hit %d: sharded %v, brute force %v", q.ID, i, got[i], want[q.ID][i])
			}
		}
	}
}

func TestShardedIndexDynamic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	rs := testutil.RandDataset(rng, 30, 6, 40)
	x := rankjoin.NewShardedIndex(rankjoin.ShardedIndexConfig{})

	// Empty index: searches answer empty rather than erroring, kNN of
	// a nil query is a typed error.
	if hits, err := x.Search(rs[0], 0.5); err != nil || len(hits) != 0 {
		t.Fatalf("empty search: %v, %v", hits, err)
	}
	if _, err := x.Search(nil, 0.5); !errors.Is(err, rankjoin.ErrNilQuery) {
		t.Fatalf("nil query: err = %v", err)
	}
	if _, err := x.Search(rs[0], 1.5); !errors.Is(err, rankjoin.ErrThetaRange) {
		t.Fatalf("bad theta: err = %v", err)
	}

	for _, r := range rs {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// KNN with n > Len returns everything but the query, sorted.
	nn, err := x.KNN(rs[0], len(rs)+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != len(rs)-1 {
		t.Fatalf("KNN returned %d, want %d", len(nn), len(rs)-1)
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatalf("KNN out of order at %d: %v", i, nn)
		}
	}
	// Deleting the nearest neighbor removes it from the results.
	nearest := nn[0].ID
	if ok, err := x.Delete(nearest); err != nil || !ok {
		t.Fatalf("Delete(%d) = %v, %v", nearest, ok, err)
	}
	nn2, err := x.KNN(rs[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range nn2 {
		if h.ID == nearest {
			t.Fatalf("deleted ranking %d still returned", nearest)
		}
	}
}
