package rankjoin_test

import (
	"fmt"
	"log"

	"rankjoin"
)

// ExampleJoin runs the paper's CL pipeline over a handful of top-5
// rankings.
func ExampleJoin() {
	mk := func(id int64, items ...rankjoin.Item) *rankjoin.Ranking {
		r, err := rankjoin.NewRanking(id, items)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	rs := []*rankjoin.Ranking{
		mk(1, 2, 5, 4, 3, 1),
		mk(2, 1, 4, 5, 9, 0),
		mk(3, 2, 5, 4, 1, 3), // near-duplicate of τ1
	}
	res, err := rankjoin.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Pairs {
		fmt.Printf("(%d,%d) distance %d\n", p.A, p.B, p.Dist)
	}
	// Output:
	// (1,3) distance 2
}

// ExampleEngine_SetTracer attaches a tracer to an engine and prints
// the span tree of one CL join: the root join span, the four phases of
// the paper's pipeline, and the final dedup stage. Depth is capped at
// the phase level (shuffles and per-partition tasks nest below it) and
// detail is off so the output is deterministic; pass a larger depth and
// withDetail=true to see durations and partition attributes, or export
// the same trace with WriteChromeTrace and load it in Perfetto.
func ExampleEngine_SetTracer() {
	mk := func(id int64, items ...rankjoin.Item) *rankjoin.Ranking {
		r, err := rankjoin.NewRanking(id, items)
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	rs := []*rankjoin.Ranking{
		mk(1, 2, 5, 4, 3, 1),
		mk(2, 1, 4, 5, 9, 0),
		mk(3, 2, 5, 4, 1, 3),
	}
	e := rankjoin.NewEngine(rankjoin.EngineConfig{})
	defer e.Close()
	tracer := rankjoin.NewTracer()
	e.SetTracer(tracer)
	if _, err := e.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.25}); err != nil {
		log.Fatal(err)
	}
	fmt.Print(tracer.TreeString(2, false))
	// Output:
	// join/CL
	//   cl/ordering
	//   cl/clustering
	//   cl/joining
	//   cl/expansion
	// join/dedup
}

// ExampleFootrule reproduces the distance computation of the paper's
// Table 2 (items ranked 0..k-1, missing items at rank k).
func ExampleFootrule() {
	t1, _ := rankjoin.NewRanking(1, []rankjoin.Item{2, 5, 4, 3, 1})
	t2, _ := rankjoin.NewRanking(2, []rankjoin.Item{1, 4, 5, 9, 0})
	fmt.Println(rankjoin.Footrule(t1, t2))
	fmt.Println(rankjoin.MaxDistance(5))
	// Output:
	// 16
	// 30
}

// ExampleJoinSets joins unordered token sets under Jaccard similarity —
// the paper's §8 outlook.
func ExampleJoinSets() {
	sets := map[int64][]int32{
		1: {10, 20, 30, 40},
		2: {10, 20, 30, 50},
		3: {70, 80, 90, 99},
	}
	pairs, err := rankjoin.JoinSets(sets, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Printf("(%d,%d) similarity %.2f\n", p.A, p.B, p.Sim)
	}
	// Output:
	// (1,2) similarity 0.60
}

// ExampleBuildIndex answers similarity range queries without a full
// join.
func ExampleBuildIndex() {
	mk := func(id int64, items ...rankjoin.Item) *rankjoin.Ranking {
		r, _ := rankjoin.NewRanking(id, items)
		return r
	}
	rs := []*rankjoin.Ranking{
		mk(1, 1, 2, 3, 4, 5),
		mk(2, 1, 2, 3, 5, 4),
		mk(3, 9, 8, 7, 6, 0),
	}
	idx, err := rankjoin.BuildIndex(rs)
	if err != nil {
		log.Fatal(err)
	}
	hits, err := idx.Search(rs[0], 0.2)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range hits {
		fmt.Printf("neighbor pair (%d,%d) at distance %d\n", h.A, h.B, h.Dist)
	}
	// Output:
	// neighbor pair (1,2) at distance 2
}

// ExampleJoinRS joins two datasets against each other — e.g. this
// week's rankings against last week's.
func ExampleJoinRS() {
	mk := func(id int64, items ...rankjoin.Item) *rankjoin.Ranking {
		r, _ := rankjoin.NewRanking(id, items)
		return r
	}
	thisWeek := []*rankjoin.Ranking{mk(1, 1, 2, 3, 4, 5)}
	lastWeek := []*rankjoin.Ranking{mk(1, 2, 1, 3, 4, 5), mk(2, 9, 8, 7, 6, 0)}
	res, _ := rankjoin.JoinRS(thisWeek, lastWeek, rankjoin.Options{Theta: 0.2})
	for _, p := range res.Pairs {
		fmt.Printf("R#%d ~ S#%d at distance %d\n", p.A, p.B, p.Dist)
	}
	// Output:
	// R#1 ~ S#1 at distance 2
}
