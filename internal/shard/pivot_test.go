package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// pivotsSettled is the benchmark harness's start condition
// (benchmark/scenario.go, waitForPivots): every shard with at least
// minRePivotSize entries reports pivots. It also waits out a selection
// still running, so a caller may read RePivots next.
func pivotsSettled(x *Index) bool {
	for _, s := range x.shards {
		if s.repivoting.Load() {
			return false
		}
		if st := s.Stats(); st.Size >= minRePivotSize && st.Pivots == 0 {
			return false
		}
	}
	return true
}

// TestPivotsAfterFillAndRestore pins what the harness waits for: after
// a fill, and again after RestoreShard dropped every shard's pivots,
// each shard large enough reports Pivots > 0 within waitFor's bound,
// and a shard restored below minRePivotSize reports none.
func TestPivotsAfterFillAndRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := buildIndex(t, testutil.RandDataset(rng, 600, 8, 120), 4)
	waitFor(t, func() bool { return pivotsSettled(x) })
	for i, st := range x.Stats() {
		if st.Size < minRePivotSize || st.Pivots == 0 {
			t.Fatalf("shard %d after fill: %+v", i, st)
		}
	}

	for i := range x.NumShards() {
		rs, e := x.SnapshotShard(i, nil)
		if i == 0 {
			rs = rs[:minRePivotSize-1]
		}
		if err := x.RestoreShard(i, rs, e+1); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return pivotsSettled(x) })
	for i, st := range x.Stats() {
		if (st.Pivots > 0) != (i > 0) {
			t.Fatalf("shard %d after restore: %+v", i, st)
		}
	}
}

// TestPivotKnobsChangeNoResult loads the same data and churn into two
// indexes that differ only in PivotsPerShard and Seed, and requires
// identical answers and identical serving ledgers: no query reads a
// pivot.
func TestPivotKnobsChangeNoResult(t *testing.T) {
	const k, domain = 8, 100
	rs := testutil.RandDataset(rand.New(rand.NewSource(43)), 500, k, domain)
	load := func(cfg Config) *Index {
		x := New(cfg)
		rng := rand.New(rand.NewSource(44))
		for _, r := range rs {
			if err := x.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		for id := int64(0); id < 200; id++ {
			if rng.Intn(2) == 0 {
				if _, err := x.Delete(id); err != nil {
					t.Fatal(err)
				}
			} else if err := x.Insert(testutil.RandRanking(rng, id, k, domain)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool { return pivotsSettled(x) })
		return x
	}
	a := load(Config{Shards: 3, PivotsPerShard: 1, Seed: 1})
	b := load(Config{Shards: 3, PivotsPerShard: 8, Seed: 9})

	rng := rand.New(rand.NewSource(45))
	var batch []Query
	for i := 0; i < 40; i++ {
		q := testutil.RandRanking(rng, int64(i), k, domain)
		maxDist := rankings.Threshold(0.1*float64(i%6), k)
		ra, err := a.Search(q, maxDist, q.ID)
		if err != nil {
			t.Fatal(err)
		}
		rb, _ := b.Search(q, maxDist, q.ID)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("search %d differs: %v vs %v", i, ra, rb)
		}
		ka, err := a.KNN(q, 1+i%12, NoExclude)
		if err != nil {
			t.Fatal(err)
		}
		kb, _ := b.KNN(q, 1+i%12, NoExclude)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("knn %d differs: %v vs %v", i, ka, kb)
		}
		batch = append(batch, Query{R: q, MaxDist: maxDist, Exclude: q.ID}, Query{R: q, KNN: 5, Exclude: NoExclude})
	}
	ba, err := a.SearchBatch(batch, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := b.SearchBatch(batch, nil)
	if !reflect.DeepEqual(ba, bb) {
		t.Fatal("SearchBatch results differ")
	}
	if fa, fb := a.Filters().Snapshot(), b.Filters().Snapshot(); fa != fb {
		t.Fatalf("serving ledgers differ: %v vs %v", fa, fb)
	}
	if !reflect.DeepEqual(a.Epochs(), b.Epochs()) {
		t.Fatalf("epochs differ: %v vs %v", a.Epochs(), b.Epochs())
	}
}

// TestChurnDoesNotRePivot churns every shard well past its population
// through all four mutation paths, deleting and re-inserting each id,
// and requires RePivots to stay where the fill left it.
func TestChurnDoesNotRePivot(t *testing.T) {
	const k, domain = 8, 150
	rng := rand.New(rand.NewSource(47))
	x := buildIndex(t, testutil.RandDataset(rng, 300, k, domain), 2)
	waitFor(t, func() bool { return pivotsSettled(x) })
	before := x.Stats()

	for round := 0; round < 3; round++ {
		for id := int64(0); id < 300; id++ {
			r := testutil.RandRanking(rng, id, k, domain)
			if round == 1 {
				x.ApplyDelete(id, x.shards[x.ShardOf(id)].Epoch()+1)
				if err := x.ApplyInsert(r, x.shards[x.ShardOf(id)].Epoch()+1); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if _, err := x.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := x.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !pivotsSettled(x) {
		t.Fatal("churn started a selection")
	}
	for i, st := range x.Stats() {
		if st.RePivots != before[i].RePivots || st.Pivots == 0 {
			t.Fatalf("shard %d: %+v after churn, %+v before", i, st, before[i])
		}
	}
}
