package shard

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// bruteRange is the reference oracle: a full scan with exact Footrule.
func bruteRange(rs []*rankings.Ranking, q *rankings.Ranking, maxDist int, exclude int64) []Neighbor {
	var out []Neighbor
	for _, r := range rs {
		if r.ID == exclude {
			continue
		}
		if d := rankings.Footrule(q, r); d <= maxDist {
			out = append(out, Neighbor{ID: r.ID, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildIndex(t *testing.T, rs []*rankings.Ranking, shards int) *Index {
	t.Helper()
	x := New(Config{Shards: shards, PivotsPerShard: 6, Seed: 3})
	for _, r := range rs {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return x
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rs := testutil.ClusteredDataset(rng, 40, 4, 10, 120)
	x := buildIndex(t, rs, 4)
	if x.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", x.Len(), len(rs))
	}
	maxDist := rankings.Threshold(0.25, 10)
	for _, q := range rs[:50] {
		got, err := x.Search(q, maxDist, q.ID)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(rs, q, maxDist, q.ID)
		if !sameNeighbors(got, want) {
			t.Fatalf("query %d: got %v want %v", q.ID, got, want)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rs := testutil.ClusteredDataset(rng, 30, 4, 8, 80)
	x := buildIndex(t, rs, 4)
	for _, q := range rs[:30] {
		for _, n := range []int{1, 5, 20, len(rs) + 10} {
			got, err := x.KNN(q, n, q.ID)
			if err != nil {
				t.Fatal(err)
			}
			all := bruteRange(rs, q, rankings.MaxFootrule(8), q.ID)
			want := all
			if len(want) > n {
				want = want[:n]
			}
			if !sameNeighbors(got, want) {
				t.Fatalf("query %d knn %d: got %v want %v", q.ID, n, got, want)
			}
		}
	}
}

func TestInsertDeleteUpsert(t *testing.T) {
	x := New(Config{Shards: 2, PivotsPerShard: 4})
	a := rankings.MustNew(1, []rankings.Item{1, 2, 3})
	b := rankings.MustNew(2, []rankings.Item{3, 2, 1})
	for _, r := range []*rankings.Ranking{a, b} {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := x.Get(1); !ok || got != a {
		t.Fatalf("Get(1) = %v %v", got, ok)
	}
	// Upsert replaces in place.
	a2 := rankings.MustNew(1, []rankings.Item{2, 1, 3})
	if err := x.Insert(a2); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 2 {
		t.Fatalf("Len after upsert = %d, want 2", x.Len())
	}
	if got, _ := x.Get(1); got != a2 {
		t.Fatal("upsert did not replace ranking 1")
	}
	if ok, _ := x.Delete(2); !ok {
		t.Fatal("Delete(2) should succeed")
	}
	if ok, _ := x.Delete(2); ok {
		t.Fatal("second Delete(2) should miss")
	}
	if x.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", x.Len())
	}
	// Mismatched k rejected with the typed error.
	if err := x.Insert(rankings.MustNew(9, []rankings.Item{1, 2})); !errors.Is(err, ErrKMismatch) {
		t.Fatalf("mixed-k insert error = %v, want ErrKMismatch", err)
	}
	if _, err := x.Search(rankings.MustNew(9, []rankings.Item{1, 2}), 3, NoExclude); !errors.Is(err, ErrKMismatch) {
		t.Fatalf("mixed-k search error = %v, want ErrKMismatch", err)
	}
	if err := x.Insert(nil); !errors.Is(err, ErrNilRanking) {
		t.Fatalf("nil insert error = %v, want ErrNilRanking", err)
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	x := New(Config{})
	q := rankings.MustNew(0, []rankings.Item{1, 2, 3})
	hits, err := x.Search(q, 10, NoExclude)
	if err != nil || len(hits) != 0 {
		t.Fatalf("empty index search = %v, %v", hits, err)
	}
	if _, err := x.KNN(q, 0, NoExclude); err == nil {
		t.Fatal("knn with n=0 accepted")
	}
}

// TestRePivot fills one shard past minRePivotSize, checks that the
// background selection chooses pivots, then churns half the population
// and checks that results stay correct, the selection moved no epoch,
// and the serving ledger conserves.
func TestRePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rs := testutil.RandDataset(rng, 400, 8, 200)
	x := New(Config{Shards: 1, PivotsPerShard: 6, Seed: 5})
	for _, r := range rs {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return x.Stats()[0].RePivots >= 1 && !x.shards[0].repivoting.Load() })
	st := x.Stats()[0]
	if st.Pivots == 0 {
		t.Fatalf("no pivots after re-pivot: %+v", st)
	}
	for _, r := range rs[:250] {
		fresh := testutil.RandRanking(rng, r.ID, 8, 200)
		if err := x.Insert(fresh); err != nil {
			t.Fatal(err)
		}
	}

	// Correctness after all the churn.
	cur, _ := x.Snapshot()
	maxDist := rankings.Threshold(0.2, 8)
	for _, q := range cur[:20] {
		got, err := x.Search(q, maxDist, q.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteRange(cur, q, maxDist, q.ID); !sameNeighbors(got, want) {
			t.Fatalf("post-repivot query %d: got %v want %v", q.ID, got, want)
		}
	}
	// The selection moved no epoch, and the serving ledger has two
	// fates: entries on none of a query's posting lists are
	// pruned unread, every other one gets its exact distance. At θ = 0.2
	// over a 200-item domain most entries share nothing with a query.
	if st := x.Stats()[0]; st.Epoch != uint64(len(rs)+250) {
		t.Fatalf("epoch %d after %d mutations: a re-pivot moved it", st.Epoch, len(rs)+250)
	}
	f := x.Filters().Snapshot()
	if f.PrunedPrefix == 0 || f.Verified == 0 {
		t.Fatalf("ledger lacks a fate: %v", f)
	}
	if f.Generated != f.PrunedPrefix+f.Verified || f.Emitted > f.Verified {
		t.Fatalf("serving ledger law violated: %v", f)
	}
	if f.PrunedSignature+f.PrunedPosition+f.PrunedTriangle+f.AcceptedUnverified != 0 {
		t.Fatalf("serving path moved a join-only fate: %v", f)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestSnapshotEpochConsistency: equal epochs must mean equal contents.
func TestSnapshotEpochConsistency(t *testing.T) {
	x := New(Config{Shards: 2, PivotsPerShard: 4})
	a := rankings.MustNew(1, []rankings.Item{1, 2, 3})
	if err := x.Insert(a); err != nil {
		t.Fatal(err)
	}
	rs1, es1 := x.Snapshot()
	rs2, es2 := x.Snapshot()
	if len(es1) != len(es2) {
		t.Fatal("epoch vector length changed")
	}
	for i := range es1 {
		if es1[i] != es2[i] {
			t.Fatalf("epochs moved without mutation: %v vs %v", es1, es2)
		}
	}
	if len(rs1) != len(rs2) || rs1[0] != rs2[0] {
		t.Fatal("identical epochs but different snapshots")
	}
	if _, err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	_, es3 := x.Snapshot()
	moved := false
	for i := range es3 {
		if es3[i] != es1[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("mutation did not move any shard epoch")
	}
}

func TestBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rs := testutil.ClusteredDataset(rng, 25, 4, 8, 100)
	x := buildIndex(t, rs, 3)
	maxDist := rankings.Threshold(0.3, 8)
	qs := make([]Query, 0, 10)
	for _, q := range rs[:10] {
		qs = append(qs, Query{R: q, MaxDist: maxDist, Exclude: q.ID})
	}
	qs = append(qs, Query{R: rs[3], KNN: 4, Exclude: rs[3].ID})
	batch, err := x.SearchBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		single, err := x.Search(qs[i].R, maxDist, qs[i].Exclude)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(batch[i], single) {
			t.Fatalf("batch[%d] = %v, single = %v", i, batch[i], single)
		}
	}
	single, err := x.KNN(rs[3], 4, rs[3].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNeighbors(batch[10], single) {
		t.Fatalf("batch knn = %v, single = %v", batch[10], single)
	}
}

// TestKNNBoundaryTie pins the (dist, id) tie order at the heap
// boundary: once the result heap is full, a candidate at exactly the
// worst kept distance but with a smaller id must still displace the
// root. A verification bound of worst()-1 (the historical off-by-one)
// silently drops such candidates; found by rankcheck seed 2
// (testdata/seed2-shard-pairs.repro in internal/check).
func TestKNNBoundaryTie(t *testing.T) {
	x := New(Config{Shards: 1, PivotsPerShard: 2, Seed: 1})
	q := rankings.MustNew(1000, []rankings.Item{1, 2})
	// Two identical rankings, equidistant from q; the larger id is
	// inserted (and therefore scanned) first, so the heap is full with
	// id 10 when id 5 arrives at the same distance.
	for _, id := range []int64{10, 5} {
		if err := x.Insert(rankings.MustNew(id, []rankings.Item{3, 4})); err != nil {
			t.Fatal(err)
		}
	}
	got, err := x.KNN(q, 1, NoExclude)
	if err != nil {
		t.Fatal(err)
	}
	want := []Neighbor{{ID: 5, Dist: rankings.Footrule(q, rankings.MustNew(5, []rankings.Item{3, 4}))}}
	if !sameNeighbors(got, want) {
		t.Errorf("KNN tie order: got %v, want %v (smaller id wins distance ties)", got, want)
	}
}
