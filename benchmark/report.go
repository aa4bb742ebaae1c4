package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rankjoin/internal/rankings"
)

// stamp is the environment every report carries: two reports compare
// only when their stamps agree (BENCH_4 and BENCH_5 differed in
// GOMAXPROCS and were read side by side anyway).
type stamp struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// FootruleNS is the machine-speed probe: rankings.Footrule on a
	// fixed sample of k=10 pairs.
	FootruleNS float64 `json:"rankings.footrule_k10_ns"`
}

func newStamp(opt options) stamp {
	return stamp{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: parallelism(), Clients: parallelism(),
		CPU: cpuModel(), Seed: opt.seed, Seconds: opt.seconds,
		FootruleNS: kernelProbe(rankings.Footrule),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

// probePairs is the fixed pair sample of the kernel probes: the same
// rankings whatever the seed.
var probePairs = genZipf(newRNG(0xCA11B8), orkuLike, 2048, rankK, 0)

var probeSink int

// kernelProbe returns the nanoseconds one call of kernel takes on the
// fixed pair sample: the fastest of five passes.
func kernelProbe(kernel func(a, b *rankings.Ranking) int) float64 {
	best := math.Inf(1)
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for rep := 0; rep < 64; rep++ {
			for i := 0; i+1 < len(probePairs); i += 2 {
				probeSink += kernel(probePairs[i], probePairs[i+1])
			}
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(64*len(probePairs)/2))
	}
	return best
}

// report is what a full run writes: every workload of every set.
type report struct {
	Stamp stamp      `json:"stamp"`
	Trace bool       `json:"trace"`
	Sets  [][]result `json:"sets"`
}

// runAll runs every workload, each in a process of its own (so that
// peak_rss_mb is that workload's), sets times over; prints every metric
// by name with its unit; writes the report; and, given two sets or
// more, checks that the first two agree within each metric's bound.
func runAll(opt options, st stamp, sets int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	rep := report{Stamp: st, Trace: opt.trace}
	code := 0
	for s := 0; s < sets; s++ {
		var set []result
		for _, w := range workloads {
			res, err := runChild(self, w.name, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 2
			}
			if !res.Correct {
				code = 1
			}
			set = append(set, *res)
		}
		rep.Sets = append(rep.Sets, set)
	}
	if sets >= 2 && !agree(rep.Sets[0], rep.Sets[1]) {
		code = 1
	}
	if out == "" {
		out = filepath.Join(opt.outDir, "report.json")
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("report written to %s\n", out)
	return code
}

// runChild runs one workload in a child process, passes its output
// through, and parses the full result it prints on its "report" line.
func runChild(self, name string, opt options) (*result, error) {
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var res *result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if blob, ok := strings.CutPrefix(line, "report "); ok {
			res = new(result)
			if err := json.Unmarshal([]byte(blob), res); err != nil {
				return nil, err
			}
			continue
		}
		if !strings.HasPrefix(line, "{") && !strings.HasPrefix(line, "stamp ") {
			fmt.Println(line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("no result (%v)", runErr)
	}
	return res, nil
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// agree prints the relative difference of every end-to-end metric on
// every workload between two sets of the same code, and reports whether
// all stay within their bounds in either direction.
func agree(a, b []result) bool {
	ok := true
	fmt.Println("self-agreement, set 2 against set 1:")
	for i := range a {
		for _, d := range endToEnd {
			va, vb := a[i].Metrics[d.name], b[i].Metrics[d.name]
			diff := math.Abs(worsening(d, va.Value, vb.Value))
			verdict := ""
			if diff > d.bound {
				verdict, ok = "  EXCEEDS "+fmt.Sprint(d.bound), false
			}
			fmt.Printf("%-14s %-18s %12.6g %12.6g %s  %+6.1f%%%s\n",
				a[i].Workload, d.name, va.Value, vb.Value, d.unit, 100*diff, verdict)
		}
	}
	return ok
}

func loadReport(path string) (*report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("%s: no sets", path)
	}
	return &r, nil
}

// probeTolerance is how far the machine-speed probes of two reports may
// differ before they count as different machines.
const probeTolerance = 0.25

// compareReports prints B against A per metric and workload (the
// median over each report's sets). It refuses reports whose stamps
// differ (exit 2) and exits 1 when an end-to-end metric is worse in B
// by more than its bound.
func compareReports(pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadReport(pathB)
	if err != nil {
		fatal(err)
	}
	sa, sb := a.Stamp, b.Stamp
	drift := math.Abs(sa.FootruleNS-sb.FootruleNS) / sa.FootruleNS
	sa.FootruleNS, sb.FootruleNS = 0, 0
	if sa != sb || drift > probeTolerance || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: stamps differ\n  %s: %+v trace=%v\n  %s: %+v trace=%v\n  machine-speed probe differs by %.0f%%\n",
			pathA, a.Stamp, a.Trace, pathB, b.Stamp, b.Trace, 100*drift)
		return 2
	}
	defs := endToEnd
	if a.Trace {
		defs = perLayer
	}
	med := func(r *report, wl int, name string) float64 {
		var vs []float64
		for _, set := range r.Sets {
			vs = append(vs, set[wl].Metrics[name].Value)
		}
		return median(vs)
	}
	code := 0
	for wl := range a.Sets[0] {
		for _, d := range defs {
			va, vb := med(a, wl, d.name), med(b, wl, d.name)
			worse := worsening(d, va, vb)
			verdict := ""
			if d.bound > 0 && worse > d.bound {
				verdict, code = "  REGRESSED beyond "+fmt.Sprint(d.bound), 1
			}
			fmt.Printf("%-14s %-34s %12.6g %12.6g %-6s %+6.1f%% worse%s\n",
				a.Sets[0][wl].Workload, d.name, va, vb, d.unit, 100*worse, verdict)
		}
	}
	return code
}
