package shard

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rankjoin/internal/obs"
	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// TestConcurrentMutateAndSearch hammers one index with concurrent
// Insert/Delete/Search/KNN/Snapshot traffic. Run under -race it is the
// primary data-race detector for the serving index; functionally it
// asserts that (a) searches never return a ranking that was never
// inserted, (b) snapshots are epoch-consistent (same epoch vector ⇒
// same id set), and (c) the final state matches a model map.
func TestConcurrentMutateAndSearch(t *testing.T) {
	const (
		writers = 4
		readers = 4
		ops     = 300
		k       = 8
		domain  = 100
	)
	x := New(Config{Shards: 4, PivotsPerShard: 4, Seed: 9})
	// Pre-populate so searches have something to chew on.
	seedRng := rand.New(rand.NewSource(21))
	base := testutil.RandDataset(seedRng, 200, k, domain)
	for _, r := range base {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	// Writer w owns ids [1000*(w+1), 1000*(w+1)+ops): no two goroutines
	// ever race on one id, so the final model is deterministic.
	finals := make([]map[int64]*rankings.Ranking, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			alive := make(map[int64]*rankings.Ranking)
			for i := 0; i < ops; i++ {
				id := int64(1000*(w+1) + rng.Intn(ops))
				if _, ok := alive[id]; ok && rng.Intn(2) == 0 {
					if ok, _ := x.Delete(id); !ok {
						t.Error("delete of owned live id failed")
						return
					}
					delete(alive, id)
					continue
				}
				r := testutil.RandRanking(rng, id, k, domain)
				if err := x.Insert(r); err != nil {
					t.Error(err)
					return
				}
				alive[id] = r
			}
			finals[w] = alive
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + rdr)))
			maxDist := rankings.Threshold(0.3, k)
			for i := 0; i < ops; i++ {
				q := testutil.RandRanking(rng, -1, k, domain)
				switch i % 3 {
				case 0:
					hits, err := x.Search(q, maxDist, NoExclude)
					if err != nil {
						t.Error(err)
						return
					}
					for _, h := range hits {
						if h.Dist > maxDist {
							t.Errorf("hit %v beyond maxDist %d", h, maxDist)
							return
						}
					}
				case 1:
					if _, err := x.KNN(q, 5, NoExclude); err != nil {
						t.Error(err)
						return
					}
				case 2:
					rs1, es1 := x.Snapshot()
					rs2, es2 := x.Snapshot()
					same := true
					for s := range es1 {
						if es1[s] != es2[s] {
							same = false
						}
					}
					if same && !sameIDSet(rs1, rs2) {
						t.Error("equal epoch vectors with different snapshot contents")
						return
					}
				}
			}
		}(rdr)
	}
	wg.Wait()

	// Final state must equal base plus every writer's surviving set.
	want := make(map[int64]*rankings.Ranking, len(base))
	for _, r := range base {
		want[r.ID] = r
	}
	for _, m := range finals {
		for id, r := range m {
			want[id] = r
		}
	}
	got, _ := x.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("final size %d, want %d", len(got), len(want))
	}
	for _, r := range got {
		if want[r.ID] != r {
			t.Fatalf("final state holds unexpected ranking %d", r.ID)
		}
	}
	// And a final search must agree with brute force on the quiesced set.
	maxDist := rankings.Threshold(0.25, k)
	q := base[0]
	hits, err := x.Search(q, maxDist, q.ID)
	if err != nil {
		t.Fatal(err)
	}
	if wantHits := bruteRange(got, q, maxDist, q.ID); !sameNeighbors(hits, wantHits) {
		t.Fatalf("post-quiescence search diverged: got %v want %v", hits, wantHits)
	}
}

func sameIDSet(a, b []*rankings.Ranking) bool {
	if len(a) != len(b) {
		return false
	}
	ids := make(map[int64]int, len(a))
	for _, r := range a {
		ids[r.ID]++
	}
	for _, r := range b {
		ids[r.ID]--
	}
	for _, n := range ids {
		if n != 0 {
			return false
		}
	}
	return true
}

// TestTwoPhaseSweepsDoNotDeadlockWriters is the regression test for a
// lock-order cycle: a kNN sweep holds every shard's read lock across
// its global-bound barrier, so when each Batch's shard goroutines took
// those locks concurrently, two Batches could each hold one shard and
// wait for the other's behind a queued writer (sync.RWMutex parks new
// readers behind a waiting writer). kNN readers on separate Batches —
// private arenas, the pooled Index entry points and a traced sweep,
// whose span must not re-lock a shard the sweep already holds — run
// beside one writer per shard; a hang fails the test at a deadline
// instead of stalling the package.
func TestTwoPhaseSweepsDoNotDeadlockWriters(t *testing.T) {
	const (
		shards = 2
		ops    = 3000
		k      = 8
		domain = 100
	)
	x := New(Config{Shards: shards, PivotsPerShard: 2, Seed: 5})
	for _, r := range testutil.RandDataset(rand.New(rand.NewSource(31)), 64, k, domain) {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	run := func(seed int64, op func(rng *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				if err := op(rng); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// One writer per shard, each churning ids that shard owns.
	for w := 0; w < shards; w++ {
		var ids []int64
		for id := int64(1000); len(ids) < 16; id++ {
			if x.ShardOf(id) == w {
				ids = append(ids, id)
			}
		}
		run(int64(100+w), func(rng *rand.Rand) error {
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(3) == 0 {
				_, err := x.Delete(id)
				return err
			}
			return x.Insert(testutil.RandRanking(rng, id, k, domain))
		})
	}
	for rdr := 0; rdr < 2; rdr++ {
		b := x.NewBatch()
		run(int64(200+rdr), func(rng *rand.Rand) error {
			_, err := b.KNNInto(testutil.RandRanking(rng, -1, k, domain), 3, NoExclude)
			return err
		})
	}
	run(300, func(rng *rand.Rand) error {
		_, err := x.KNN(testutil.RandRanking(rng, -1, k, domain), 3, NoExclude)
		return err
	})
	root := obs.NewTracer().StartScope("test")
	defer root.End()
	run(301, func(rng *rand.Rand) error {
		_, err := x.SearchBatch([]Query{
			{R: testutil.RandRanking(rng, -1, k, domain), KNN: 2, Exclude: NoExclude},
			{R: testutil.RandRanking(rng, -2, k, domain), MaxDist: rankings.Threshold(0.3, k), Exclude: NoExclude},
		}, root)
		return err
	})

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("kNN sweeps and writers deadlocked: not finished after 30s")
	}
}
