package shard

import (
	"math/rand"
	"testing"

	"rankjoin/internal/rankings"
	"rankjoin/internal/testutil"
)

// clustered10k is the serving benchmarks' data: 12 000 rankings in
// clusters of six near-duplicates over a 300-item domain.
func clustered10k() []*rankings.Ranking {
	return testutil.ClusteredDataset(rand.New(rand.NewSource(99)), 2000, 5, 10, 300)
}

// zipf10k is shaped like the join_dense workload: 10 000 rankings whose
// items follow Zipf(1.05) over a domain of 0.35 n, so the head items sit
// on a large share of the rankings and their posting lists are long.
func zipf10k() []*rankings.Ranking {
	return testutil.ZipfDataset(rand.New(rand.NewSource(99)), 10_000, 10, 3_500, 1.05)
}

// benchQueries times query over indexed members drawn at random, each
// excluding itself, through one reused Batch of a default index.
func benchQueries(b *testing.B, data []*rankings.Ranking, query func(*Batch, *rankings.Ranking) error) {
	x := New(Config{})
	for _, r := range data {
		if err := x.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	bb := x.NewBatch()
	qrng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := query(bb, data[qrng.Intn(len(data))]); err != nil {
			b.Fatal(err)
		}
	}
}

func knn10(bb *Batch, q *rankings.Ranking) error {
	_, err := bb.KNNInto(q, 10, q.ID)
	return err
}

// search25 is a range search at the serving workloads' θ = 0.25.
func search25(bb *Batch, q *rankings.Ranking) error {
	_, err := bb.SearchInto(q, rankings.Threshold(0.25, q.K()), q.ID)
	return err
}

func BenchmarkKNNInto10k(b *testing.B)        { benchQueries(b, clustered10k(), knn10) }
func BenchmarkSearchInto10k(b *testing.B)     { benchQueries(b, clustered10k(), search25) }
func BenchmarkKNNIntoZipf10k(b *testing.B)    { benchQueries(b, zipf10k(), knn10) }
func BenchmarkSearchIntoZipf10k(b *testing.B) { benchQueries(b, zipf10k(), search25) }
