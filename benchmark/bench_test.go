package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"rankjoin/internal/rankings"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesSpec holds BENCHMARK.json to spec.go and
// layers.go and to the driver's caps.
func TestManifestMatchesSpec(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, defaultSeconds)
	}
	if n := len(m.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go, cap 2..8", n, len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) < 1 || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program, cap %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			d := want[i]
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program has %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %q: name or unit %q outside the driver's alphabet", kind, g.Name, g.Unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the program, cap 0.25", kind, g.Name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
	seen := map[string]bool{}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
}

// TestSmoke runs all six workloads at tiny scale, untraced and traced,
// and checks that each emits every metric of its list exactly once,
// with its unit, as a number, and that every correctness check passes.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				if !trace {
					// The runs wait on fsyncs and sockets more than they
					// compute. A traced run counts the process's mallocs
					// around its steady-state sweeps, so it runs alone.
					t.Parallel()
				}
				opt := options{seed: 7, seconds: 0.5, scale: 0.02, trace: trace, outDir: t.TempDir()}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				res, err := runWorkload(&w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%q", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("%s not emitted", d.name)
					} else if v.Unit != d.unit {
						t.Errorf("%s in %q, declared %q", d.name, v.Unit, d.unit)
					}
				}
				if _, err := json.Marshal(res.Metrics); err != nil {
					t.Error(err) // a NaN: some phase produced no samples
				}
				if trace {
					blob, err := os.ReadFile(filepath.Join(opt.outDir, "trace_"+w.name+".json"))
					var doc struct {
						TraceEvents []map[string]any `json:"traceEvents"`
					}
					if err != nil || json.Unmarshal(blob, &doc) != nil || len(doc.TraceEvents) == 0 {
						t.Errorf("no valid Chrome trace written (%v)", err)
					}
				}
			})
		}
	}
}

// TestSeedsRelabel pins what a seed may change: the same seed gives the
// same inputs, another seed gives other inputs of the same shape.
func TestSeedsRelabel(t *testing.T) {
	w := findWorkload("join_dense")
	a, again, b := generate(w, 1, 0.05), generate(w, 1, 0.05), generate(w, 2, 0.05)
	if a.digest != again.digest {
		t.Error("the same seed gave different inputs")
	}
	if a.digest == b.digest {
		t.Error("different seeds gave the same inputs")
	}
	count := func(in *inputs) int {
		return len(bruteForcePairs(in.joinData, maxDistFor(w.theta, rankK)))
	}
	if ca, cb := count(a), count(b); ca != cb || ca == 0 {
		t.Errorf("seeds 1 and 2 join to %d and %d pairs; relabelling must keep the pair count", ca, cb)
	}
}

// TestOwnFootrule holds the benchmark's brute-force distance to the
// program's kernel on the fixed pair sample.
func TestOwnFootrule(t *testing.T) {
	for i := 0; i+1 < len(probePairs); i += 2 {
		a, b := probePairs[i], probePairs[i+1]
		if got, want := footrule(a.Items, b.Items), rankings.Footrule(a, b); got != want {
			t.Fatalf("footrule(%v, %v) = %d, rankings.Footrule = %d", a.Items, b.Items, got, want)
		}
	}
}

// TestSlowdownNearest pins what a measurement is divided by: the median
// of the nearPasses passes nearest to it in time, not the run's.
func TestSlowdownNearest(t *testing.T) {
	c := &calibration{}
	for i := 0; i < 40; i++ {
		d := calibRef.Seconds()
		if i >= 20 {
			d *= 2 // the second half of the run is twice as slow
		}
		c.at, c.passes = append(c.at, float64(i)), append(c.passes, d)
	}
	if got := c.slowdown(5); got != 1 {
		t.Errorf("slowdown in the calm half = %v, want 1", got)
	}
	if got := c.slowdown(35); got != 2 {
		t.Errorf("slowdown in the slow half = %v, want 2", got)
	}
	if got := c.calibrated([]float64{3, 6}, []float64{5, 35}, false); got != 3 {
		t.Errorf("calibrated times = %v, want 3", got)
	}
	if got := c.calibrated([]float64{100, 50}, []float64{5, 35}, true); got != 100 {
		t.Errorf("calibrated rates = %v, want 100", got)
	}
}
