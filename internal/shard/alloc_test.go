package shard

import (
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// quiesce waits until every shard's background re-pivoting has settled
// and then holds each shard's re-pivot latch, so allocation
// measurements neither race a rebuild nor start one: AllocsPerRun
// counts the whole process's mallocs, and a sweep whose prune rate
// dips under minPruneRate (triangle-only pruning at k > maxSignatureK
// sits near it) would otherwise bill a background rePivot to the query.
func quiesce(t *testing.T, x *Index) {
	t.Helper()
	waitFor(t, func() bool {
		for _, s := range x.shards {
			if s.repivoting.Load() {
				return false
			}
			st := s.Stats()
			if st.Size >= minRePivotSize && st.Pivots == 0 {
				return false
			}
		}
		return true
	})
	for _, s := range x.shards {
		if !s.repivoting.CompareAndSwap(false, true) {
			t.Fatal("a re-pivot started on a quiesced index")
		}
	}
}

// TestQueriesAllocationFree pins the arena contract: once a Batch has
// warmed its buffers to their high-water mark, steady-state SearchInto,
// KNNInto and SearchBatchInto queries allocate nothing — the property
// the serving path's throughput rests on. k = 80 > maxSignatureK takes
// every sweep down its branch without signatures, which no other
// allocation gate (the benchmark's included) measures.
func TestQueriesAllocationFree(t *testing.T) {
	for _, k := range []int{10, 80} {
		rng := rand.New(rand.NewSource(31))
		rs := testutil.ClusteredDataset(rng, 100, 5, k, 30*k)
		x := buildIndex(t, rs, 4)
		quiesce(t, x)
		maxDist := rankings.Threshold(0.25, k)

		b := x.NewBatch()
		qs := make([]Query, 0, 8)
		for _, q := range rs[:8] {
			qs = append(qs, Query{R: q, MaxDist: maxDist, Exclude: q.ID})
		}
		qs = append(qs[:7], Query{R: rs[7], KNN: 10, Exclude: rs[7].ID})

		checks := []struct {
			name string
			fn   func()
		}{
			{"SearchInto", func() {
				if _, err := b.SearchInto(rs[1], maxDist, rs[1].ID); err != nil {
					t.Fatal(err)
				}
			}},
			{"KNNInto", func() {
				if _, err := b.KNNInto(rs[2], 10, rs[2].ID); err != nil {
					t.Fatal(err)
				}
			}},
			{"SearchBatchInto", func() {
				if _, err := b.SearchBatchInto(qs, nil); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, c := range checks {
			// One extra warm call before measuring: AllocsPerRun's own warm-up
			// run is also the arena's first growth to this shape.
			c.fn()
			if avg := testing.AllocsPerRun(100, c.fn); avg != 0 {
				t.Errorf("%s, k = %d: %.2f allocs/op in steady state, want 0; find it with: go build -gcflags=-m ./internal/shard 2>&1 | grep -E 'escapes|moved to heap'", c.name, k, avg)
			}
		}
	}
}

// TestBatchArenaReuse pins the documented aliasing contract: results
// returned by *Into calls are views into the Batch arena, invalidated
// by the next call — and re-running the same queries through one Batch
// yields identical answers (the rankcheck replay relies on this).
func TestBatchArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const k = 8
	rs := testutil.ClusteredDataset(rng, 30, 4, k, 80)
	x := buildIndex(t, rs, 3)
	maxDist := rankings.Threshold(0.3, k)
	b := x.NewBatch()

	first, err := b.SearchInto(rs[0], maxDist, rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Neighbor(nil), first...)
	// A different query scribbles over the arena...
	if _, err := b.KNNInto(rs[5], 5, rs[5].ID); err != nil {
		t.Fatal(err)
	}
	// ...but replaying the original through the same Batch matches the
	// detached copy, and the public (copying) API agrees.
	again, err := b.SearchInto(rs[0], maxDist, rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNeighbors(again, want) {
		t.Fatalf("replay through reused Batch diverged: %v vs %v", again, want)
	}
	pub, err := x.Search(rs[0], maxDist, rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sameNeighbors(pub, want) {
		t.Fatalf("public Search diverged from Batch view: %v vs %v", pub, want)
	}
}

// TestCardinalities pins the cheap size accessor against Len and the
// per-shard stats.
func TestCardinalities(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rs := testutil.RandDataset(rng, 123, 6, 200)
	x := buildIndex(t, rs, 5)
	cards := x.Cardinalities()
	if len(cards) != x.NumShards() {
		t.Fatalf("Cardinalities length %d, want %d", len(cards), x.NumShards())
	}
	total := 0
	for i, c := range cards {
		total += c
		if st := x.shards[i].Stats(); st.Size != c {
			t.Errorf("shard %d cardinality %d != stats size %d", i, c, st.Size)
		}
	}
	if total != x.Len() {
		t.Fatalf("cardinality sum %d != Len %d", total, x.Len())
	}
}
