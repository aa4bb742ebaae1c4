// Command rankjoin runs a similarity join over a top-k ranking dataset
// file and writes the result pairs.
//
// Usage:
//
//	rankjoin -input data.txt -theta 0.3 [-algo cl|clp|vj|vjnl|brute]
//	         [-thetac 0.03] [-delta 0] [-partitions 0] [-workers 0]
//	         [-output pairs.txt] [-stats]
//
// The input format is one ranking per line: optionally "id:" followed
// by whitespace- or comma-separated item ids, best-ranked first. Output
// lines are "a b dist".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"rankjoin"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rankjoin: ")

	var (
		input      = flag.String("input", "", "input dataset file (required)")
		output     = flag.String("output", "", "output file (default stdout)")
		algo       = flag.String("algo", "cl", "algorithm: cl, clp, vj, vjnl, brute")
		theta      = flag.Float64("theta", 0.2, "normalized distance threshold θ in [0,1]")
		thetaC     = flag.Float64("thetac", 0.03, "clustering threshold θc (cl/clp)")
		delta      = flag.Int("delta", 0, "repartitioning threshold δ (clp; 0 = auto via Eq. 4)")
		partitions = flag.Int("partitions", 0, "shuffle partitions (0 = default)")
		workers    = flag.Int("workers", 0, "executor worker budget (0 = GOMAXPROCS)")
		stats      = flag.Bool("stats", false, "print pipeline statistics to stderr")
	)
	flag.Parse()
	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}

	algorithm, err := parseAlgo(*algo)
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(*input)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := rankjoin.ReadRankings(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d rankings from %s", len(rs), *input)

	engine := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: *workers})

	start := time.Now()
	res, err := engine.Join(rs, rankjoin.Options{
		Algorithm:  algorithm,
		Theta:      *theta,
		ThetaC:     *thetaC,
		Delta:      *delta,
		Partitions: *partitions,
		Stats:      *stats,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	out := os.Stdout
	if *output != "" {
		out, err = os.Create(*output)
		if err != nil {
			log.Fatal(err)
		}
		defer out.Close()
	}
	w := bufio.NewWriter(out)
	for _, p := range res.Pairs {
		fmt.Fprintf(w, "%d %d %d\n", p.A, p.B, p.Dist)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	log.Printf("%s θ=%v: %d pairs in %v", algorithm, *theta, len(res.Pairs), elapsed)
	if *stats {
		if res.CL != nil {
			log.Printf("phases: %v", res.CL)
		}
		if res.Kernel != nil {
			log.Printf("kernel: %v", res.Kernel)
		}
		log.Printf("engine: %v", res.Engine)
	}
}

func parseAlgo(s string) (rankjoin.Algorithm, error) {
	switch s {
	case "cl":
		return rankjoin.AlgCL, nil
	case "clp":
		return rankjoin.AlgCLP, nil
	case "vj":
		return rankjoin.AlgVJ, nil
	case "vjnl":
		return rankjoin.AlgVJNL, nil
	case "brute":
		return rankjoin.AlgBruteForce, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q (want cl, clp, vj, vjnl, brute)", s)
	}
}
