package shard

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// checkPostings rebuilds every shard's posting lists from its entries
// and compares them with the maintained ones: each (item, entry, rank)
// appears exactly once, on the list the item's index slot names, no
// list is empty, and every slot is either an item's or free.
func checkPostings(x *Index) error {
	for si, s := range x.shards {
		s.mu.RLock()
		err := s.checkPostingsLocked()
		s.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

func (s *Shard) checkPostingsLocked() error {
	want := make(map[rankings.Item][]posting)
	for ei, r := range s.entries {
		if s.byID[r.ID] != ei {
			return fmt.Errorf("byID[%d] = %d, entry sits at %d", r.ID, s.byID[r.ID], ei)
		}
		for rank, it := range r.Items {
			want[it] = append(want[it], posting{ent: int32(ei), rank: int32(rank)})
		}
	}
	if len(s.byID) != len(s.entries) {
		return fmt.Errorf("%d entries, %d ids", len(s.entries), len(s.byID))
	}
	if len(s.index) != len(want) || len(s.lists) != len(s.index)+len(s.free) {
		return fmt.Errorf("%d items indexed, %d rebuilt; %d lists, %d free", len(s.index), len(want), len(s.lists), len(s.free))
	}
	owner := make(map[int32]rankings.Item, len(s.lists))
	for it, li := range s.index {
		if prev, taken := owner[li]; taken {
			return fmt.Errorf("items %d and %d share list %d", prev, it, li)
		}
		owner[li] = it
		got := slices.Clone(s.lists[li])
		slices.SortFunc(got, func(a, b posting) int { return cmp.Compare(a.ent, b.ent) })
		if !slices.Equal(got, want[it]) {
			return fmt.Errorf("item %d: postings %v, rebuilt %v", it, got, want[it])
		}
	}
	for _, li := range s.free {
		if _, taken := owner[li]; taken || s.lists[li] != nil {
			return fmt.Errorf("free list slot %d is in use: %v", li, s.lists[li])
		}
		owner[li] = 0
	}
	return nil
}

// TestPostingsExactUnderChurn runs a seeded interleaving of every
// mutation the shard has — fresh inserts, upserts with different items,
// deletes that hit, miss, remove the last entry or swap-move another,
// RestoreShard, ApplyInsert and ApplyDelete — and after each step
// rebuilds the posting lists from the entries and compares, then
// compares Search and KNN through one reused Batch with brute force.
// The queries cover θ = 0 and θ = 1 (where every untouched entry is a
// hit), a KNN larger than the touched count (the fill by smallest id),
// and Exclude on a touched and on an untouched id.
func TestPostingsExactUnderChurn(t *testing.T) {
	for _, tc := range []struct{ k, domain int }{{1, 6}, {10, 60}, {80, 240}} {
		t.Run(fmt.Sprintf("k=%d", tc.k), func(t *testing.T) {
			churnAndCheck(t, tc.k, tc.domain, 250)
		})
	}
}

func churnAndCheck(t *testing.T, k, domain, steps int) {
	rng := rand.New(rand.NewSource(int64(41 + k)))
	x := New(Config{Shards: 3, PivotsPerShard: 2, Seed: 7})
	live := make(map[int64]*rankings.Ranking)
	nextID := int64(0)
	fresh := func(id int64) *rankings.Ranking { return testutil.RandRanking(rng, id, k, domain) }
	// freshIn returns a new ranking whose id routes to shard si.
	freshIn := func(si int) *rankings.Ranking {
		for ; x.ShardOf(nextID) != si; nextID++ {
		}
		nextID++
		return fresh(nextID - 1)
	}
	liveIDs := func() []int64 {
		ids := make([]int64, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	// entryAt returns the id at entry index i of shard si (-1: last).
	entryAt := func(si, i int) (int64, bool) {
		s := x.shards[si]
		s.mu.RLock()
		defer s.mu.RUnlock()
		if len(s.entries) == 0 {
			return 0, false
		}
		if i < 0 {
			i = len(s.entries) - 1
		}
		return s.entries[i].ID, true
	}
	mustDelete := func(id int64) {
		if ok, err := x.Delete(id); err != nil || !ok {
			t.Fatalf("Delete(%d) of a live id = %v, %v", id, ok, err)
		}
		delete(live, id)
	}
	insert := func(r *rankings.Ranking) {
		if err := x.Insert(r); err != nil {
			t.Fatal(err)
		}
		live[r.ID] = r
	}
	for i := 0; i < 40; i++ {
		insert(fresh(nextID))
		nextID++
	}

	b := x.NewBatch()
	for step := 0; step < steps; step++ {
		op := rng.Intn(9)
		si := rng.Intn(x.NumShards())
		switch op {
		case 0: // fresh insert
			insert(fresh(nextID))
			nextID++
		case 1: // upsert an existing id with different items
			if ids := liveIDs(); len(ids) > 0 {
				insert(fresh(ids[rng.Intn(len(ids))]))
			}
		case 2: // delete that misses
			if ok, err := x.Delete(nextID + 1_000_000); ok || err != nil {
				t.Fatalf("delete of an absent id = %v, %v", ok, err)
			}
		case 3: // delete of the last entry: nothing moves
			if id, ok := entryAt(si, -1); ok {
				mustDelete(id)
			}
		case 4: // delete that swap-moves the last entry into the hole
			if s := x.shards[si]; s.Len() >= 2 {
				id, _ := entryAt(si, rng.Intn(s.Len()-1))
				mustDelete(id)
			}
		case 5: // RestoreShard: keep a random part of shard si, add fresh rankings
			rs, _ := x.SnapshotShard(si, nil)
			var keep []*rankings.Ranking
			for _, r := range rs {
				if rng.Intn(3) > 0 {
					keep = append(keep, r)
				} else {
					delete(live, r.ID)
				}
			}
			for j := rng.Intn(4); j > 0; j-- {
				r := freshIn(si)
				keep = append(keep, r)
				live[r.ID] = r
			}
			rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
			if err := x.RestoreShard(si, keep, x.shards[si].Epoch()+1); err != nil {
				t.Fatal(err)
			}
		case 6: // ApplyInsert, fresh or over an existing id
			r := freshIn(si)
			if ids := liveIDs(); len(ids) > 0 && rng.Intn(2) == 0 {
				r = fresh(ids[rng.Intn(len(ids))])
			}
			if err := x.ApplyInsert(r, x.shards[x.ShardOf(r.ID)].Epoch()+1); err != nil {
				t.Fatal(err)
			}
			live[r.ID] = r
		default: // ApplyDelete of a live id
			if ids := liveIDs(); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				if !x.ApplyDelete(id, x.shards[x.ShardOf(id)].Epoch()+1) {
					t.Fatalf("ApplyDelete(%d) of a live id missed", id)
				}
				delete(live, id)
			}
		}
		if err := checkPostings(x); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		checkQueries(t, b, live, k, domain, rng)
	}
}

// checkQueries compares range and kNN answers through b with brute
// force over live for an indexed member excluding itself (a touched
// exclude), an ad-hoc ranking, and a ranking sharing no item with
// anything indexed, excluding an indexed id (an untouched exclude).
func checkQueries(t *testing.T, b *Batch, live map[int64]*rankings.Ranking, k, domain int, rng *rand.Rand) {
	t.Helper()
	all := make([]*rankings.Ranking, 0, len(live))
	for _, r := range live {
		all = append(all, r)
	}
	slices.SortFunc(all, func(a, b *rankings.Ranking) int { return cmp.Compare(a.ID, b.ID) })
	type probe struct {
		q       *rankings.Ranking
		exclude int64
	}
	disjoint := make([]rankings.Item, k)
	for i := range disjoint {
		disjoint[i] = rankings.Item(domain + i)
	}
	probes := []probe{
		{testutil.RandRanking(rng, -1, k, domain), NoExclude},
		{rankings.MustNew(-2, disjoint), NoExclude},
	}
	if len(all) > 0 {
		m := all[rng.Intn(len(all))]
		probes = append(probes, probe{m, m.ID})
		probes[1].exclude = all[rng.Intn(len(all))].ID
	}
	maxF := rankings.MaxFootrule(k)
	for _, p := range probes {
		for _, theta := range []float64{0, 0.3, 1} {
			maxDist := rankings.Threshold(theta, k)
			got, err := b.SearchInto(p.q, maxDist, p.exclude)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteRange(all, p.q, maxDist, p.exclude); !sameNeighbors(got, want) {
				t.Fatalf("search q=%v θ=%v exclude=%d: got %v want %v", p.q, theta, p.exclude, got, want)
			}
		}
		ranked := bruteRange(all, p.q, maxF, p.exclude)
		for _, n := range []int{1, 3, len(all) + 1} {
			got, err := b.KNNInto(p.q, n, p.exclude)
			if err != nil {
				t.Fatal(err)
			}
			if want := ranked[:min(n, len(ranked))]; !sameNeighbors(got, want) {
				t.Fatalf("knn q=%v n=%d exclude=%d: got %v want %v", p.q, n, p.exclude, got, want)
			}
		}
	}
}
