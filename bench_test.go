// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7) at laptop scale, one benchmark per table/figure, plus
// the ablation benches for the design choices called out in DESIGN.md
// and the tracer overhead guard CI runs as a gate.
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkFig6aDBLP -benchmem
//
// The figures' full sweeps (with 3-run averaging, DNF budgeting and
// table rendering) live in cmd/experiments; these benches measure the
// same cells through testing.B so regressions surface in CI.
package rankjoin_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rankjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/dataset"
	"rankjoin/internal/experiments"
	"rankjoin/internal/flow"
	"rankjoin/internal/testutil"
	"rankjoin/internal/vj"
)

// benchParams sizes the benchmark datasets. Small enough that a full
// -bench=. sweep stays in the minutes range; grow via cmd/experiments
// for the full study.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.DBLPBase = 1200
	p.ORKUBase = 1500
	p.Repeats = 1
	p.CellBudget = 0
	return p
}

func workload(b *testing.B, prof dataset.Profile, k, scale int) experiments.Workload {
	b.Helper()
	w, err := experiments.MakeWorkload(benchParams(), prof, k, scale)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func benchCell(b *testing.B, w experiments.Workload, cfg experiments.RunConfig) {
	b.Helper()
	var pairs int
	for i := 0; i < b.N; i++ {
		m, err := experiments.Run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pairs = m.Pairs
	}
	b.ReportMetric(float64(pairs), "pairs")
}

// benchFigure6 runs the Figure 6 grid (4 algorithms × 4 thresholds) as
// sub-benchmarks.
func benchFigure6(b *testing.B, prof dataset.Profile, k, scale int) {
	w := workload(b, prof, k, scale)
	for _, algo := range experiments.AllAlgos {
		for _, th := range experiments.Thetas {
			b.Run(fmt.Sprintf("%s/theta=%.1f", algo, th), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{Algo: algo, Theta: th})
			})
		}
	}
}

// BenchmarkFig6aDBLP — Figure 6(a): all algorithms vs θ on DBLP.
func BenchmarkFig6aDBLP(b *testing.B) { benchFigure6(b, dataset.DBLPLike, 10, 1) }

// BenchmarkFig6bDBLPx5 — Figure 6(b): DBLP ×5.
func BenchmarkFig6bDBLPx5(b *testing.B) { benchFigure6(b, dataset.DBLPLike, 10, 5) }

// BenchmarkFig6cDBLPx10 — Figure 6(c): DBLP ×10 (the paper's VJ DNFs).
func BenchmarkFig6cDBLPx10(b *testing.B) { benchFigure6(b, dataset.DBLPLike, 10, 10) }

// BenchmarkFig6dORKU — Figure 6(d): ORKU.
func BenchmarkFig6dORKU(b *testing.B) { benchFigure6(b, dataset.ORKULike, 10, 1) }

// BenchmarkFig6eORKUx5 — Figure 6(e): ORKU ×5.
func BenchmarkFig6eORKUx5(b *testing.B) { benchFigure6(b, dataset.ORKULike, 10, 5) }

// BenchmarkFig7Scalability — Figure 7: CL-P under a doubled worker
// budget ("4 vs 8 nodes") on DBLPx5 and ORKU.
func BenchmarkFig7Scalability(b *testing.B) {
	for _, ds := range []struct {
		prof  dataset.Profile
		scale int
	}{{dataset.DBLPLike, 5}, {dataset.ORKULike, 1}} {
		w := workload(b, ds.prof, 10, ds.scale)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", w.Name, workers), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{
					Algo: rankjoin.AlgCLP, Theta: 0.3, Workers: workers,
				})
			})
		}
	}
}

// BenchmarkFig8DatasetGrowth — Figure 8: CL-P across DBLP ×1/×5/×10.
func BenchmarkFig8DatasetGrowth(b *testing.B) {
	for _, scale := range []int{1, 5, 10} {
		w := workload(b, dataset.DBLPLike, 10, scale)
		for _, th := range experiments.Thetas {
			b.Run(fmt.Sprintf("x%d/theta=%.1f", scale, th), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{Algo: rankjoin.AlgCLP, Theta: th})
			})
		}
	}
}

// BenchmarkFig9ClusteringThreshold — Figure 9: CL across θc.
func BenchmarkFig9ClusteringThreshold(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	for _, tc := range experiments.ThetaCs {
		for _, th := range []float64{0.2, 0.4} {
			b.Run(fmt.Sprintf("thetaC=%.2f/theta=%.1f", tc, th), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{
					Algo: rankjoin.AlgCL, Theta: th, ThetaC: tc,
				})
			})
		}
	}
}

// BenchmarkFig10PartitioningThreshold — Figure 10: CL-P across δ.
func BenchmarkFig10PartitioningThreshold(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	n := len(w.Rankings)
	for _, delta := range []int{n / 32, n / 8, n / 2} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			benchCell(b, w, experiments.RunConfig{
				Algo: rankjoin.AlgCLP, Theta: 0.3, Delta: delta,
			})
		})
	}
}

// BenchmarkFig11K25 — Figure 11: all algorithms on k=25 rankings.
func BenchmarkFig11K25(b *testing.B) {
	w := workload(b, dataset.ORKULike, 25, 1)
	for _, algo := range experiments.AllAlgos {
		for _, th := range []float64{0.1, 0.3} {
			b.Run(fmt.Sprintf("%s/theta=%.1f", algo, th), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{Algo: algo, Theta: th})
			})
		}
	}
}

// BenchmarkFig12Partitions — Figure 12: VJ/VJ-NL/CL across partition
// counts at θ=0.3.
func BenchmarkFig12Partitions(b *testing.B) {
	w := workload(b, dataset.DBLPLike, 10, 1)
	for _, parts := range experiments.PartitionSweep {
		for _, algo := range []rankjoin.Algorithm{rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL} {
			b.Run(fmt.Sprintf("parts=%d/%s", parts, algo), func(b *testing.B) {
				benchCell(b, w, experiments.RunConfig{Algo: algo, Theta: 0.3, Partitions: parts})
			})
		}
	}
}

// BenchmarkFig13PartitionsCLP — Figure 13: CL-P across partition
// counts.
func BenchmarkFig13PartitionsCLP(b *testing.B) {
	w := workload(b, dataset.DBLPLike, 10, 5)
	for _, parts := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			benchCell(b, w, experiments.RunConfig{Algo: rankjoin.AlgCLP, Theta: 0.3, Partitions: parts})
		})
	}
}

// BenchmarkTable3EngineShuffle measures the raw engine under the
// Table 3 configuration: one groupByKey exchange of the DBLP prefix
// tokens — the substrate cost every pipeline stage pays.
func BenchmarkTable3EngineShuffle(b *testing.B) {
	w := workload(b, dataset.DBLPLike, 10, 1)
	var kvs []flow.KV[int32, int64]
	for _, r := range w.Rankings {
		for _, it := range r.Items {
			kvs = append(kvs, flow.KV[int32, int64]{K: it, V: r.ID})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := flow.NewContext(flow.Config{DefaultPartitions: 16})
		if _, err := flow.GroupByKey(flow.Parallelize(ctx, kvs, 16), 16).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (see DESIGN.md §4) ---

// BenchmarkAblationOrdering — §4: frequency reordering on vs off.
func BenchmarkAblationOrdering(b *testing.B) {
	w := workload(b, dataset.DBLPLike, 10, 1)
	for _, skip := range []bool{false, true} {
		name := "ordered"
		if skip {
			name = "identity"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := flow.NewContext(flow.Config{DefaultPartitions: 16})
				if _, err := vj.Join(ctx, w.Rankings, vj.Options{
					Theta: 0.3, Variant: vj.NestedLoop, SkipReorder: skip,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIndexVsNL — §4.1: per-partition inverted index vs
// nested loop, isolated from the rest of the pipeline.
func BenchmarkAblationIndexVsNL(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	for _, v := range []vj.Variant{vj.IndexJoin, vj.NestedLoop} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := flow.NewContext(flow.Config{DefaultPartitions: 16})
				if _, err := vj.Join(ctx, w.Rankings, vj.Options{Theta: 0.3, Variant: v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLemma53 — §5.2: per-type centroid thresholds vs
// uniform θ+2θc.
func BenchmarkAblationLemma53(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	for _, uniform := range []bool{false, true} {
		name := "lemma53"
		if uniform {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := flow.NewContext(flow.Config{DefaultPartitions: 16})
				if _, err := core.Join(ctx, w.Rankings, core.Options{
					Theta: 0.3, ThetaC: 0.03, UniformJoinThreshold: uniform,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTriangleFilter — §5.3: expansion with vs without
// triangle pruning.
func BenchmarkAblationTriangleFilter(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	for _, noFilter := range []bool{false, true} {
		name := "filter"
		if noFilter {
			name = "nofilter"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := flow.NewContext(flow.Config{DefaultPartitions: 16})
				if _, err := core.Join(ctx, w.Rankings, core.Options{
					Theta: 0.3, ThetaC: 0.03, NoTriangleFilter: noFilter,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRandomCentroids — §5.1: the paper's pair-derived
// clustering vs the random-centroid baseline, via the experiment
// harness (reports both methods' statistics once per run).
func BenchmarkAblationRandomCentroids(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationClustering(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines — the §2 baselines (V-SMART, ClusterJoin) against
// the paper's algorithms at one representative threshold.
func BenchmarkBaselines(b *testing.B) {
	w := workload(b, dataset.ORKULike, 10, 1)
	algos := append(append([]rankjoin.Algorithm(nil), experiments.AllAlgos...),
		rankjoin.AlgVSMART, rankjoin.AlgClusterJoin, rankjoin.AlgFSJoin)
	for _, algo := range algos {
		b.Run(algo.String(), func(b *testing.B) {
			benchCell(b, w, experiments.RunConfig{Algo: algo, Theta: 0.3})
		})
	}
}

// BenchmarkTracerOverheadGuard is the DESIGN §7 contract as a build
// gate: attaching a tracer to a CL join costs under 2 % (plus 5 ms that
// keep timer noise out of it). On a shared machine one run of either
// join is off by ±8 % from the next, four times the contract, so the
// two sides run at the same moment, one worker each, and whatever the
// machine does it does to both. The verdict is a sign test over 48 such
// pairs: the gate fails when the traced side is over budget in
// significantly more than half (two standard deviations of a fair
// coin), so however noisy the machine, a tracer within budget fails
// less than one run in forty. (On a single CPU the two time-share and
// the gate is half as sensitive.) A benchmark and not a test, so
// `go test ./...` never asserts a timing; CI runs it with
// `-run '^$' -bench OverheadGuard -benchtime 1x`.
func BenchmarkTracerOverheadGuard(b *testing.B) {
	const pairs = 48
	rs := testutil.ClusteredDataset(rand.New(rand.NewSource(7)), 1600, 4, 10, 300)
	run := func(traced bool) time.Duration {
		e := rankjoin.NewEngine(rankjoin.EngineConfig{Workers: 1})
		defer e.Close()
		if traced {
			e.SetTracer(rankjoin.NewTracer())
		}
		start := time.Now()
		if _, err := e.Join(rs, rankjoin.Options{Algorithm: rankjoin.AlgCL, Theta: 0.3}); err != nil {
			b.Error(err)
		}
		return time.Since(start)
	}
	for i := 0; i < b.N; i++ {
		var total [2]time.Duration // 0 is detached, 1 is attached
		over := 0
		for pair := 0; pair < pairs; pair++ {
			var spent [2]time.Duration
			var wg sync.WaitGroup
			for t := 0; t < 2; t++ {
				side := (pair + t) % 2 // who starts first alternates too
				wg.Add(1)
				go func() {
					defer wg.Done()
					spent[side] = run(side == 1)
				}()
			}
			wg.Wait()
			total[0], total[1] = total[0]+spent[0], total[1]+spent[1]
			if spent[1] > spent[0]+spent[0]/50+5*time.Millisecond {
				over++
			}
		}
		if float64(over) > pairs/2+math.Sqrt(pairs) {
			b.Fatalf("tracer attached over budget in %d of %d pairs (%v vs %v detached in total)",
				over, pairs, total[1], total[0])
		}
		b.ReportMetric(float64(total[1])/float64(total[0]), "attached/detached")
		b.ReportMetric(float64(over), "pairs-over")
	}
}
