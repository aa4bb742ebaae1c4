package rankings_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// benchPairs draws a deterministic pool of indexed ranking pairs over a
// domain of 2k items — roughly the overlap mix a posting-list partition
// hands the verification kernel.
func benchPairs(k int) (as, bs []*rankings.Ranking) {
	rng := rand.New(rand.NewSource(42))
	as = make([]*rankings.Ranking, 256)
	bs = make([]*rankings.Ranking, 256)
	for i := range as {
		as[i] = testutil.RandRanking(rng, int64(i), k, 2*k)
		bs[i] = testutil.RandRanking(rng, int64(1000+i), k, 2*k)
	}
	return as, bs
}

// BenchmarkFootrule measures the full-distance kernel — the cost paid
// once per verified candidate pair in every join algorithm.
func BenchmarkFootrule(b *testing.B) {
	for _, k := range []int{10, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			as, bs := benchPairs(k)
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				j := i & 255
				sink += rankings.Footrule(as[j], bs[j])
			}
			_ = sink
		})
	}
}

// footruleMapRef is the definition of the top-k Footrule distance read
// off per-ranking map[Item]rank indexes, probed once per item from both
// sides — the kernel design the flat position index replaced (8–11×
// slower, results/history/BENCH_1.json), kept as an independent oracle
// for the flat kernels.
func footruleMapRef(a, b *rankings.Ranking) int {
	index := func(r *rankings.Ranking) map[rankings.Item]int {
		m := make(map[rankings.Item]int, len(r.Items))
		for rank, it := range r.Items {
			m[it] = rank
		}
		return m
	}
	pa, pb := index(a), index(b)
	k, d := len(a.Items), 0
	for rank, it := range a.Items {
		if rb, ok := pb[it]; ok {
			if rank > rb {
				d += rank - rb
			} else {
				d += rb - rank
			}
		} else {
			d += k - rank
		}
	}
	for rank, it := range b.Items {
		if _, ok := pa[it]; !ok {
			d += k - rank
		}
	}
	return d
}

func TestFootruleMatchesMapReference(t *testing.T) {
	for _, k := range []int{1, 2, 10, 25} {
		as, bs := benchPairs(k)
		for i := range as {
			want := footruleMapRef(as[i], bs[i])
			if got := rankings.Footrule(as[i], bs[i]); got != want {
				t.Fatalf("k=%d pair %d: Footrule = %d, map reference = %d", k, i, got, want)
			}
			if d, ok := rankings.FootruleWithin(as[i], bs[i], want); !ok || d != want {
				t.Fatalf("k=%d pair %d: FootruleWithin(bound %d) = %d, %v", k, i, want, d, ok)
			}
			if _, ok := rankings.FootruleWithin(as[i], bs[i], want-1); ok {
				t.Fatalf("k=%d pair %d: FootruleWithin accepted bound %d below the distance", k, i, want-1)
			}
		}
	}
}

// BenchmarkFootruleWithin measures the early-terminating verifier at a
// representative θ=0.3 bound (most pairs exceed it and bail out early).
func BenchmarkFootruleWithin(b *testing.B) {
	for _, k := range []int{10, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			as, bs := benchPairs(k)
			bound := rankings.Threshold(0.3, k)
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				j := i & 255
				d, _ := rankings.FootruleWithin(as[j], bs[j], bound)
				sink += d
			}
			_ = sink
		})
	}
}

// BenchmarkPos measures the raw position lookup backing both kernels.
func BenchmarkPos(b *testing.B) {
	for _, k := range []int{10, 25} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			as, _ := benchPairs(k)
			b.ResetTimer()
			var sink int32
			for i := 0; i < b.N; i++ {
				r := as[i&255]
				p, _ := r.Pos(r.Items[i%k])
				sink += p
			}
			_ = sink
		})
	}
}
