// Command benchmark is the one benchmark of the whole system: six
// workloads, each a full pass through joins, serving, durability and
// recovery, reporting the end-to-end metrics of BENCHMARK.json with
// tracing off and the per-layer metrics in a separate traced run. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process (default: every workload, each in a process of its own)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics, tracing off")
		sets    = flag.Int("sets", 1, "run the whole set this many times and compare the first two")
		compare = flag.Bool("compare", false, "compare two report files given as arguments")
		out     = flag.String("out", "", "write the report of a full run to this file")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: outDir()}
	st := newStamp(opt) // the machine-speed probe runs before anything else does
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fatal(err)
	}
	if *name == "" {
		os.Exit(runAll(opt, st, *sets, *out))
	}
	w := findWorkload(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	printResult(res, st)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// outDir is benchmark/out from the repository root (where the driver
// runs the command) or out from the benchmark's own directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// printResult prints the stamp, every metric by name with its unit,
// the notes, and as the last line the driver's JSON object.
func printResult(res *result, st stamp) {
	blob, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", blob)
	fmt.Printf("workload %s seed %d input_digest %s\n", res.Workload, st.Seed, res.Digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.Notes {
		fmt.Printf("note %s\n", n)
	}
	if blob, err := json.Marshal(res); err == nil {
		fmt.Printf("report %s\n", blob)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err) // a NaN metric: a phase produced no samples
	}
	fmt.Printf("%s\n", line)
}
