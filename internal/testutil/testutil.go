// Package testutil provides deterministic random dataset generation
// shared by the test suites of the join packages.
package testutil

import (
	"math/rand"

	"rankjoin/internal/rankings"
)

// RandRanking draws a duplicate-free top-k ranking with items from
// [0, domain).
func RandRanking(rng *rand.Rand, id int64, k, domain int) *rankings.Ranking {
	if domain < k {
		panic("testutil: domain smaller than k")
	}
	items := make([]rankings.Item, 0, k)
	seen := make(map[rankings.Item]struct{}, k)
	for len(items) < k {
		it := rankings.Item(rng.Intn(domain))
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		items = append(items, it)
	}
	r := rankings.MustNew(id, items)
	r.Index()
	return r
}

// RandDataset draws n rankings of length k over a domain of the given
// size. Small domains yield many near pairs; large domains few.
func RandDataset(rng *rand.Rand, n, k, domain int) []*rankings.Ranking {
	rs := make([]*rankings.Ranking, n)
	for i := range rs {
		rs[i] = RandRanking(rng, int64(i), k, domain)
	}
	return rs
}

// ZipfDataset draws n rankings of length k whose items follow a Zipf
// distribution with skew s > 1 over [0, domain) — the frequency shape
// of the paper's real datasets (and the regime the δ repartitioning of
// §6 exists for: a few items appear in almost every ranking, so their
// posting lists explode). domain must be at least 2k so the rejection
// loop terminates; the most frequent items are shared by nearly all
// rankings.
func ZipfDataset(rng *rand.Rand, n, k, domain int, s float64) []*rankings.Ranking {
	if domain < 2*k {
		panic("testutil: zipf domain smaller than 2k")
	}
	zipf := rand.NewZipf(rng, s, 1, uint64(domain-1))
	rs := make([]*rankings.Ranking, n)
	for i := range rs {
		items := make([]rankings.Item, 0, k)
		seen := make(map[rankings.Item]struct{}, k)
		tries := 0
		for len(items) < k {
			var it rankings.Item
			if tries < 64*k {
				it = rankings.Item(zipf.Uint64())
				tries++
			} else {
				// Heavy skew can make fresh draws rare; fall back to a
				// uniform draw so generation always terminates.
				it = rankings.Item(rng.Intn(domain))
			}
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			items = append(items, it)
		}
		r := rankings.MustNew(int64(i), items)
		r.Index()
		rs[i] = r
	}
	return rs
}

// DisjointDataset draws blocks of rankings over mutually disjoint item
// domains: every cross-block pair is at the maximum Footrule distance
// k(k+1) and shares no item — the degenerate regime where prefix
// filtering is incomplete and the pipelines must fall back to the
// catch-all group (θ = 1 admits all of these pairs).
func DisjointDataset(rng *rand.Rand, blocks, perBlock, k, blockDomain int) []*rankings.Ranking {
	if blockDomain < k {
		panic("testutil: block domain smaller than k")
	}
	var out []*rankings.Ranking
	id := int64(0)
	for b := 0; b < blocks; b++ {
		base := b * blockDomain
		for i := 0; i < perBlock; i++ {
			items := make([]rankings.Item, 0, k)
			seen := make(map[rankings.Item]struct{}, k)
			for len(items) < k {
				it := rankings.Item(base + rng.Intn(blockDomain))
				if _, dup := seen[it]; dup {
					continue
				}
				seen[it] = struct{}{}
				items = append(items, it)
			}
			r := rankings.MustNew(id, items)
			r.Index()
			id++
			out = append(out, r)
		}
	}
	return out
}

// WithDuplicates appends extra exact copies of randomly chosen existing
// rankings under fresh ids — distance-0 pairs that stress tie-breaking
// (kNN boundary order, θ = 0 joins) and dedup paths.
func WithDuplicates(rng *rand.Rand, rs []*rankings.Ranking, extra int) []*rankings.Ranking {
	if len(rs) == 0 {
		return rs
	}
	id := int64(0)
	for _, r := range rs {
		if r.ID >= id {
			id = r.ID + 1
		}
	}
	out := rs
	for i := 0; i < extra; i++ {
		src := rs[rng.Intn(len(rs))]
		items := make([]rankings.Item, len(src.Items))
		copy(items, src.Items)
		r := rankings.MustNew(id, items)
		r.Index()
		id++
		out = append(out, r)
	}
	return out
}

// ClusteredDataset draws base "seed" rankings and, around each, a few
// near-duplicates obtained by swapping adjacent positions or replacing
// a bottom item — producing datasets with genuine clusters at small
// Footrule distances, the regime the CL pipeline targets.
func ClusteredDataset(rng *rand.Rand, seeds, perSeed, k, domain int) []*rankings.Ranking {
	var out []*rankings.Ranking
	id := int64(0)
	for s := 0; s < seeds; s++ {
		base := RandRanking(rng, id, k, domain)
		id++
		out = append(out, base)
		for m := 0; m < perSeed; m++ {
			items := make([]rankings.Item, k)
			copy(items, base.Items)
			// A couple of gentle perturbations. k = 1 has no adjacent
			// pairs to swap, so only item replacement applies there.
			for t := 0; t < 1+rng.Intn(2); t++ {
				move := rng.Intn(3)
				if k == 1 {
					move = 1
				}
				switch move {
				case 0: // swap adjacent ranks
					i := rng.Intn(k - 1)
					items[i], items[i+1] = items[i+1], items[i]
				case 1: // replace the bottom item with a fresh one
					for {
						it := rankings.Item(rng.Intn(domain))
						fresh := true
						for _, have := range items {
							if have == it {
								fresh = false
								break
							}
						}
						if fresh {
							items[k-1] = it
							break
						}
					}
				case 2: // rotate the bottom two
					items[k-2], items[k-1] = items[k-1], items[k-2]
				}
			}
			r := rankings.MustNew(id, items)
			r.Index()
			id++
			out = append(out, r)
		}
	}
	return out
}

// Renumber returns copies of rs renumbered by their own frequency
// order (rankings.Order.Renumber), as a join's ordering phase leaves
// them: the input of the prefix kernels.
func Renumber(rs []*rankings.Ranking) []*rankings.Ranking {
	ord := rankings.NewOrder(rankings.ItemCounts(rs))
	out := make([]*rankings.Ranking, len(rs))
	for i, r := range rs {
		out[i] = ord.Renumber(r)
	}
	return out
}
