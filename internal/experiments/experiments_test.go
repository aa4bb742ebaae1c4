package experiments_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rankjoin"
	"rankjoin/internal/dataset"
	"rankjoin/internal/experiments"
)

func tinyParams() experiments.Params {
	p := experiments.DefaultParams()
	p.DBLPBase = 300
	p.ORKUBase = 300
	p.Repeats = 1
	p.Partitions = 4
	return p
}

func TestTableRender(t *testing.T) {
	tb := &experiments.Table{
		Name:    "demo",
		Title:   "demo table",
		Columns: []string{"a", "longer"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("a note %d", 7)
	out := tb.Render()
	for _, want := range []string{"demo table", "longer", "333", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure of the paper's evaluation must be present.
	wanted := []string{
		"table3",
		"fig6a", "fig6b", "fig6c", "fig6d", "fig6e",
		"fig7a", "fig7b", "fig8",
		"fig9a", "fig9b", "fig9c",
		"fig10a", "fig10b", "fig10c",
		"fig11", "fig12a", "fig12b", "fig13",
	}
	for _, name := range wanted {
		if _, err := experiments.Get(name); err != nil {
			t.Errorf("registry missing %s", name)
		}
	}
	if _, err := experiments.Get("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(experiments.Names()) < len(wanted) {
		t.Error("registry smaller than the figure list")
	}
}

func TestMakeWorkloadCachesAndScales(t *testing.T) {
	p := tinyParams()
	a, err := experiments.MakeWorkload(p, dataset.DBLPLike, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.MakeWorkload(p, dataset.DBLPLike, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Rankings[0] == nil || len(a.Rankings) != len(b.Rankings) {
		t.Fatal("cache broken")
	}
	x5, err := experiments.MakeWorkload(p, dataset.DBLPLike, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(x5.Rankings) != 5*len(a.Rankings) {
		t.Errorf("x5 size %d, want %d", len(x5.Rankings), 5*len(a.Rankings))
	}
	if !strings.Contains(x5.Name, "x5") {
		t.Errorf("workload name %q", x5.Name)
	}
}

// TestRunAgreesAcrossAlgorithms: the harness measures the join every
// other caller runs. Each of the seven algorithms returns the
// brute-force result size through the public entry point, CL statistics
// come back exactly for the CL family, every algorithm shuffles, and the
// public boundary's input checks apply — a duplicated id is refused
// where the VJ drivers on their own skip it silently.
func TestRunAgreesAcrossAlgorithms(t *testing.T) {
	w, err := experiments.MakeWorkload(tinyParams(), dataset.ORKULike, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rankjoin.Join(w.Rankings, rankjoin.Options{Algorithm: rankjoin.AlgBruteForce, Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	dup := w
	dup.Rankings = append(append([]*rankjoin.Ranking(nil), w.Rankings...), w.Rankings[0])
	for _, c := range []struct {
		algo    rankjoin.Algorithm
		w       experiments.Workload
		cl      bool
		wantErr error
	}{
		{algo: rankjoin.AlgVJ, w: w},
		{algo: rankjoin.AlgVJNL, w: w},
		{algo: rankjoin.AlgCL, w: w, cl: true},
		{algo: rankjoin.AlgCLP, w: w, cl: true},
		{algo: rankjoin.AlgVSMART, w: w},
		{algo: rankjoin.AlgClusterJoin, w: w},
		{algo: rankjoin.AlgFSJoin, w: w},
		{algo: rankjoin.AlgVJNL, w: dup, wantErr: rankjoin.ErrDuplicateID},
	} {
		m, err := experiments.Run(c.w, experiments.RunConfig{Algo: c.algo, Theta: 0.3, Partitions: 4})
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("%s: err = %v, want %v", c.algo, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.algo, err)
		}
		if m.Pairs != len(want.Pairs) {
			t.Errorf("%s: %d pairs, brute force finds %d", c.algo, m.Pairs, len(want.Pairs))
		}
		if (m.CLStats != nil) != c.cl {
			t.Errorf("%s: CLStats = %v", c.algo, m.CLStats)
		}
		if m.Wall <= 0 || m.Engine.Tasks == 0 || m.Engine.ShuffleRecords == 0 {
			t.Errorf("%s: wall %v, engine %v", c.algo, m.Wall, m.Engine)
		}
	}
}

func TestRunRejectsUnknownAlgo(t *testing.T) {
	p := tinyParams()
	w, err := experiments.MakeWorkload(p, dataset.DBLPLike, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.Run(w, experiments.RunConfig{Algo: rankjoin.Algorithm(99), Theta: 0.2}); err == nil {
		t.Error("unknown algo accepted")
	}
}

// TestFigureSmoke: each figure function produces a well-formed table at
// tiny scale. fig6c (×10) and the δ sweeps are the slowest; tiny bases
// keep this test in seconds.
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is seconds-long; skipped with -short")
	}
	p := tinyParams()
	for _, name := range []string{"table3", "fig6a", "fig7b", "fig8", "fig9a", "fig10a", "fig12a", "fig13"} {
		exp, err := experiments.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := exp.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 || len(tb.Columns) == 0 {
			t.Errorf("%s: empty table", name)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s: ragged row %v vs columns %v", name, row, tb.Columns)
			}
		}
	}
}

// TestAblationSmoke: the ablation experiments run and produce tables.
func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test is seconds-long; skipped with -short")
	}
	p := tinyParams()
	for _, name := range []string{
		"ablation-ordering", "ablation-lemma53", "ablation-triangle",
		"ablation-clustering",
	} {
		exp, err := experiments.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := exp.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
	}
}

// TestSeriesDNFBudget: a cell beyond the budget marks the remaining
// cells of its series DNF rather than running them.
func TestSeriesDNFBudget(t *testing.T) {
	p := tinyParams()
	p.CellBudget = time.Nanosecond // everything blows the budget
	tb, err := experiments.Figure6(p, dataset.DBLPLike, 1, "fig6-dnf")
	if err != nil {
		t.Fatal(err)
	}
	dnf := 0
	for _, row := range tb.Rows {
		for _, cell := range row {
			if cell == "DNF" {
				dnf++
			}
		}
	}
	if dnf == 0 {
		t.Error("nanosecond budget produced no DNF cells")
	}
}
