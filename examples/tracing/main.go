// Tracing: observe a join instead of just running it. An engine with a
// tracer attached records a span for every pipeline phase, shuffle,
// and per-partition task; Result carries the filter-effectiveness
// counters and the engine snapshot carries skew histograms. This
// program joins a small clustered dataset with CL, prints the span
// tree and the filter cascade tally, and (with -trace-out) exports the
// run as Chrome trace-event JSON for Perfetto / chrome://tracing.
//
// Usage:
//
//	go run ./examples/tracing [-trace-out trace.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"

	"rankjoin"
)

func main() {
	traceOut := flag.String("trace-out", "", "write Chrome trace JSON to this file")
	flag.Parse()

	// A clustered dataset: 40 seed rankings, 4 near-duplicates each,
	// top-10 over a 200-item domain — enough structure for every CL
	// phase to do real work.
	rng := rand.New(rand.NewSource(42))
	domain := make([]rankjoin.Item, 200)
	for i := range domain {
		domain[i] = rankjoin.Item(i)
	}
	var rs []*rankjoin.Ranking
	id := int64(0)
	for s := 0; s < 40; s++ {
		rng.Shuffle(len(domain), func(i, j int) { domain[i], domain[j] = domain[j], domain[i] })
		base := append([]rankjoin.Item(nil), domain[:10]...)
		for c := 0; c < 4; c++ {
			items := append([]rankjoin.Item(nil), base...)
			// Perturb: swap a couple of adjacent positions per copy.
			for p := 0; p < c; p++ {
				i := rng.Intn(len(items) - 1)
				items[i], items[i+1] = items[i+1], items[i]
			}
			id++
			r, err := rankjoin.NewRanking(id, items)
			if err != nil {
				log.Fatal(err)
			}
			rs = append(rs, r)
		}
	}

	e := rankjoin.NewEngine(rankjoin.EngineConfig{})
	tracer := rankjoin.NewTracer()
	e.SetTracer(tracer)

	res, err := e.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d rankings -> %d result pairs\n\n", len(rs), len(res.Pairs))

	fmt.Println("span tree (phases, shuffles, stages):")
	fmt.Print(tracer.TreeString(3, true))

	f := res.Filters
	fmt.Println("\nfilter cascade:")
	fmt.Printf("  candidates generated   %8d\n", f.Generated)
	fmt.Printf("  pruned by prefix       %8d\n", f.PrunedPrefix)
	fmt.Printf("  pruned by signature    %8d\n", f.PrunedSignature)
	fmt.Printf("  pruned by position     %8d\n", f.PrunedPosition)
	fmt.Printf("  pruned by triangle     %8d\n", f.PrunedTriangle)
	fmt.Printf("  accepted unverified    %8d\n", f.AcceptedUnverified)
	fmt.Printf("  verified               %8d\n", f.Verified)
	fmt.Printf("  emitted                %8d  (conserved: %v)\n", f.Emitted, f.Conserved())

	fmt.Println("\nskew histograms:")
	names := make([]string, 0, len(res.Engine.Histograms))
	for name := range res.Engine.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-28s %s\n", name, res.Engine.Histograms[name])
	}

	if *traceOut != "" {
		out, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := tracer.WriteChromeTrace(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace written to %s — open it in https://ui.perfetto.dev or chrome://tracing\n", *traceOut)
	}
}
