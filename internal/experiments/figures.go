package experiments

import (
	"fmt"
	"runtime"
	"time"

	"rankjoin"
	"rankjoin/internal/core"
	"rankjoin/internal/dataset"
)

// Figure6 reproduces one panel of Figure 6: execution time of the four
// algorithms as θ varies, for the given dataset profile and scale.
func Figure6(p Params, prof dataset.Profile, scale int, name string) (*Table, error) {
	w, err := MakeWorkload(p, prof, 10, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:  name,
		Title: fmt.Sprintf("execution time (ms) vs θ — %s, %d rankings", w.Name, len(w.Rankings)),
	}
	if err := thetaSweep(p, w, t, AllAlgos, true); err != nil {
		return nil, err
	}
	t.AddNote("θc=0.03 for CL/CL-P; CL-P δ = n/4 = %d", defaultDelta(w))
	return t, nil
}

// thetaSweep fills t with one row per θ of Thetas: θ, the wall time of
// each algorithm under a column named by its String(), and, when
// withPairs is set, the result size.
func thetaSweep(p Params, w Workload, t *Table, algos []rankjoin.Algorithm, withPairs bool) error {
	t.Columns = []string{"theta"}
	times := make([][]time.Duration, len(algos))
	var pairs []int
	for i, algo := range algos {
		t.Columns = append(t.Columns, algo.String())
		var err error
		if times[i], pairs, err = series(p, w, algo, Thetas, RunConfig{}); err != nil {
			return err
		}
	}
	if withPairs {
		t.Columns = append(t.Columns, "pairs")
	}
	for j, th := range Thetas {
		row := []string{fmtF(th)}
		for i := range algos {
			row = append(row, fmtDur(times[i][j]))
		}
		if withPairs {
			row = append(row, fmt.Sprint(pairs[j]))
		}
		t.AddRow(row...)
	}
	return nil
}

// Figure7 reproduces the scalability experiment: CL-P wall time as the
// "cluster" grows from 4 to 8 nodes. Nodes become engine worker
// budgets: 4 nodes ≙ W workers, 8 nodes ≙ 2W, with W sized to the host
// so doubling still has cores to use.
func Figure7(p Params, prof dataset.Profile, scale int, name string) (*Table, error) {
	w, err := MakeWorkload(p, prof, 10, scale)
	if err != nil {
		return nil, err
	}
	small := runtime.GOMAXPROCS(0) / 2
	if small < 1 {
		small = 1
	}
	big := 2 * small
	t := &Table{
		Name:    name,
		Title:   fmt.Sprintf("CL-P scalability — %s, 4 vs 8 nodes (workers %d vs %d)", w.Name, small, big),
		Columns: []string{"theta", fmt.Sprintf("4 nodes (W=%d)", small), fmt.Sprintf("8 nodes (W=%d)", big), "saving%"},
	}
	t4, _, err := series(p, w, rankjoin.AlgCLP, Thetas, RunConfig{Workers: small})
	if err != nil {
		return nil, err
	}
	t8, _, err := series(p, w, rankjoin.AlgCLP, Thetas, RunConfig{Workers: big})
	if err != nil {
		return nil, err
	}
	for i, th := range Thetas {
		saving := "-"
		if t4[i] > 0 && t8[i] > 0 {
			saving = fmt.Sprintf("%.0f", 100*(1-float64(t8[i])/float64(t4[i])))
		}
		t.AddRow(fmtF(th), fmtDur(t4[i]), fmtDur(t8[i]), saving)
	}
	return t, nil
}

// Figure8 reproduces the dataset-growth experiment: CL-P wall time on
// DBLP ×1, ×5, ×10 across θ.
func Figure8(p Params) (*Table, error) {
	t := &Table{
		Name:    "fig8",
		Title:   "CL-P execution time (ms) vs dataset scale (DBLP ×1/×5/×10)",
		Columns: []string{"scale", "n"},
	}
	for _, th := range Thetas {
		t.Columns = append(t.Columns, fmt.Sprintf("θ=%.1f", th))
	}
	for _, scale := range []int{1, 5, 10} {
		w, err := MakeWorkload(p, dataset.DBLPLike, 10, scale)
		if err != nil {
			return nil, err
		}
		times, _, err := series(p, w, rankjoin.AlgCLP, Thetas, RunConfig{})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("x%d", scale), fmt.Sprint(len(w.Rankings))}
		for _, d := range times {
			row = append(row, fmtDur(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ThetaCs is the paper's Figure 9 clustering-threshold sweep.
var ThetaCs = []float64{0.01, 0.02, 0.03, 0.05, 0.1}

// Figure9 reproduces one panel of Figure 9: CL wall time as θc varies,
// for each θ.
func Figure9(p Params, prof dataset.Profile, scale int, name string) (*Table, error) {
	w, err := MakeWorkload(p, prof, 10, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    name,
		Title:   fmt.Sprintf("CL execution time (ms) vs clustering threshold θc — %s", w.Name),
		Columns: []string{"thetaC"},
	}
	for _, th := range Thetas {
		t.Columns = append(t.Columns, fmt.Sprintf("θ=%.1f", th))
	}
	for _, tc := range ThetaCs {
		times, _, err := series(p, w, rankjoin.AlgCL, Thetas, RunConfig{ThetaC: tc})
		if err != nil {
			return nil, err
		}
		row := []string{fmtF(tc)}
		for _, d := range times {
			row = append(row, fmtDur(d))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure10 reproduces one panel of Figure 10: CL-P wall time as the
// partitioning threshold δ varies, for two θ values. δ is swept as
// fractions of the dataset size (the paper's absolute ranges scale with
// its datasets). A last row leaves δ to the join's Equation 4 planner;
// the notes report, per θ, what it planned against the posting lists
// the joining phase then built.
func Figure10(p Params, prof dataset.Profile, scale int, thetas []float64, name string) (*Table, error) {
	w, err := MakeWorkload(p, prof, 10, scale)
	if err != nil {
		return nil, err
	}
	n := len(w.Rankings)
	deltas := []int{n / 32, n / 16, n / 8, n / 4, n / 2}
	t := &Table{
		Name:    name,
		Title:   fmt.Sprintf("CL-P execution time (ms) vs partitioning threshold δ — %s", w.Name),
		Columns: []string{"delta"},
	}
	for _, th := range thetas {
		t.Columns = append(t.Columns, fmt.Sprintf("θ=%.1f", th))
	}
	for _, d := range deltas {
		if d < 1 {
			continue
		}
		times, _, err := series(p, w, rankjoin.AlgCLP, thetas, RunConfig{Delta: d})
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(d)}
		for _, dur := range times {
			row = append(row, fmtDur(dur))
		}
		t.AddRow(row...)
	}
	auto := []string{"auto"}
	for _, th := range thetas {
		m, err := Measure(p, w, RunConfig{Algo: rankjoin.AlgCLP, Theta: th, Delta: core.AutoDelta})
		if err != nil {
			return nil, err
		}
		auto = append(auto, fmtDur(m.Wall))
		t.AddNote("auto δ at θ=%.1f: %s", th, m.CLStats.DeltaReport())
	}
	t.AddRow(auto...)
	return t, nil
}

// Figure11 reproduces the k=25 experiment: all four algorithms on
// ORKU-like rankings of length 25.
func Figure11(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.ORKULike, 25, 1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:  "fig11",
		Title: fmt.Sprintf("execution time (ms) vs θ for k=25 — %s, %d rankings", w.Name, len(w.Rankings)),
	}
	if err := thetaSweep(p, w, t, AllAlgos, true); err != nil {
		return nil, err
	}
	return t, nil
}

// PartitionSweep is the scaled-down analogue of the paper's 86–686
// Spark partition sweep.
var PartitionSweep = []int{4, 8, 16, 32, 64}

// Figure12 reproduces one panel of Figure 12: VJ, VJ-NL and CL wall
// time across shuffle partition counts at θ=0.3.
func Figure12(p Params, prof dataset.Profile, scale int, name string) (*Table, error) {
	w, err := MakeWorkload(p, prof, 10, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    name,
		Title:   fmt.Sprintf("execution time (ms) vs #partitions (θ=0.3) — %s", w.Name),
		Columns: []string{"partitions", "VJ", "VJ-NL", "CL"},
	}
	for _, parts := range PartitionSweep {
		row := []string{fmt.Sprint(parts)}
		for _, algo := range []rankjoin.Algorithm{rankjoin.AlgVJ, rankjoin.AlgVJNL, rankjoin.AlgCL} {
			m, err := Measure(p, w, RunConfig{Algo: algo, Theta: 0.3, Partitions: parts})
			if err != nil {
				return nil, err
			}
			row = append(row, fmtDur(m.Wall))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure13 reproduces Figure 13: CL-P wall time across (larger)
// partition counts at θ=0.3 on DBLPx5.
func Figure13(p Params) (*Table, error) {
	w, err := MakeWorkload(p, dataset.DBLPLike, 10, 5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "fig13",
		Title:   fmt.Sprintf("CL-P execution time (ms) vs #partitions (θ=0.3, δ=%d) — %s", defaultDelta(w), w.Name),
		Columns: []string{"partitions", "CL-P"},
	}
	for _, parts := range []int{8, 16, 32, 64, 128} {
		m, err := Measure(p, w, RunConfig{Algo: rankjoin.AlgCLP, Theta: 0.3, Partitions: parts})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(parts), fmtDur(m.Wall))
	}
	return t, nil
}

// Table3 renders the engine configuration in the shape of the paper's
// Table 3 (Spark parameters).
func Table3(p Params) (*Table, error) {
	t := &Table{
		Name:    "table3",
		Title:   "engine parameters (analogue of the paper's Spark setup)",
		Columns: []string{"parameter", "value"},
	}
	workers := p.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t.AddRow("engine workers (executors × cores)", fmt.Sprint(workers))
	t.AddRow("default shuffle partitions", fmt.Sprint(p.Partitions))
	t.AddRow("cell budget (paper: 10h cap)", p.CellBudget.String())
	t.AddRow("DBLP base size (paper: 1.2M)", fmt.Sprint(p.DBLPBase))
	t.AddRow("ORKU base size (paper: 2M)", fmt.Sprint(p.ORKUBase))
	return t, nil
}
