// Command ranklint runs the repo-specific static-analysis passes that
// enforce rankjoin's runtime invariants at compile time: span
// lifecycle (spanend), filter-counter conservation (ledgertally),
// shard mutex discipline (lockorder), map-iteration determinism
// (maporder), the sentinel-error wrapping contract (wraperr), and —
// through the cross-function call graph — the write-path hedging ban
// (nohedge), the WAL two-phase commit contract (walack), context
// threading (ctxflow) and metric-registry hygiene (metricreg). Each is
// the one gate for its invariant; what the compiler, go vet and the
// AllocsPerRun tests already hold is not repeated here. See DESIGN.md
// §10.
//
// Usage (the CI gate):
//
//	go run ./cmd/ranklint ./...          # text findings, exit 1 if any
//	go run ./cmd/ranklint -json ./...    # {findings, suppressed} envelope
//	go run ./cmd/ranklint -run spanend,wraperr ./internal/...
//	go run ./cmd/ranklint -list          # list analyzers
//
// Suppress one finding with a trailing or preceding comment carrying a
// mandatory reason:
//
//	//ranklint:ignore reason why the invariant holds here
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rankjoin/internal/analysis"
	"rankjoin/internal/analysis/passes"
)

func main() {
	os.Exit(run())
}

func run() int {
	all := passes.All()

	fs := flag.NewFlagSet("ranklint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a JSON envelope: findings ({path,line,col,analyzer,message}) plus per-analyzer suppression counts")
	list := fs.Bool("list", false, "list analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ranklint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	selected, err := selectAnalyzers(all, *runNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res, err := analysis.RunAll(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if res.Findings == nil {
			res.Findings = []analysis.Finding{}
		}
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f.String())
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "ranklint: %d finding(s) in %d package(s)\n", len(res.Findings), len(pkgs))
		}
		return 1
	}
	return 0
}

// selectAnalyzers resolves a -run flag value against the registry.
// Names must match exactly (no prefixes, no globs); an empty value
// selects every analyzer. Duplicate names run once per occurrence, in
// the order given, like go vet's -run.
func selectAnalyzers(all []*analysis.Analyzer, runNames string) ([]*analysis.Analyzer, error) {
	if runNames == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(runNames, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("ranklint: unknown analyzer %q (use -list)", name)
		}
		selected = append(selected, a)
	}
	return selected, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
