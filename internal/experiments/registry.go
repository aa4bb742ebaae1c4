package experiments

import (
	"fmt"
	"sort"

	"rankjoin/internal/dataset"
)

// Experiment is a named, runnable reproduction of one paper
// table/figure (or ablation).
type Experiment struct {
	Name        string
	Description string
	Run         func(Params) (*Table, error)
}

// Registry lists every experiment, keyed by name.
var Registry = map[string]Experiment{
	"table3": {"table3", "Table 3: engine configuration", Table3},
	"fig6a": {"fig6a", "Figure 6(a): algorithms vs θ on DBLP", func(p Params) (*Table, error) {
		return Figure6(p, dataset.DBLPLike, 1, "fig6a")
	}},
	"fig6b": {"fig6b", "Figure 6(b): algorithms vs θ on DBLPx5", func(p Params) (*Table, error) {
		return Figure6(p, dataset.DBLPLike, 5, "fig6b")
	}},
	"fig6c": {"fig6c", "Figure 6(c): algorithms vs θ on DBLPx10", func(p Params) (*Table, error) {
		return Figure6(p, dataset.DBLPLike, 10, "fig6c")
	}},
	"fig6d": {"fig6d", "Figure 6(d): algorithms vs θ on ORKU", func(p Params) (*Table, error) {
		return Figure6(p, dataset.ORKULike, 1, "fig6d")
	}},
	"fig6e": {"fig6e", "Figure 6(e): algorithms vs θ on ORKUx5", func(p Params) (*Table, error) {
		return Figure6(p, dataset.ORKULike, 5, "fig6e")
	}},
	"fig7a": {"fig7a", "Figure 7(a): CL-P scalability, 4 vs 8 nodes, DBLPx5", func(p Params) (*Table, error) {
		return Figure7(p, dataset.DBLPLike, 5, "fig7a")
	}},
	"fig7b": {"fig7b", "Figure 7(b): CL-P scalability, 4 vs 8 nodes, ORKU", func(p Params) (*Table, error) {
		return Figure7(p, dataset.ORKULike, 1, "fig7b")
	}},
	"fig8": {"fig8", "Figure 8: CL-P vs dataset scale (DBLP x1/x5/x10)", Figure8},
	"fig9a": {"fig9a", "Figure 9(a): CL vs θc on DBLP", func(p Params) (*Table, error) {
		return Figure9(p, dataset.DBLPLike, 1, "fig9a")
	}},
	"fig9b": {"fig9b", "Figure 9(b): CL vs θc on DBLPx5", func(p Params) (*Table, error) {
		return Figure9(p, dataset.DBLPLike, 5, "fig9b")
	}},
	"fig9c": {"fig9c", "Figure 9(c): CL vs θc on ORKU", func(p Params) (*Table, error) {
		return Figure9(p, dataset.ORKULike, 1, "fig9c")
	}},
	"fig10a": {"fig10a", "Figure 10(a): CL-P vs δ on ORKU (θ=0.3, 0.4)", func(p Params) (*Table, error) {
		return Figure10(p, dataset.ORKULike, 1, []float64{0.3, 0.4}, "fig10a")
	}},
	"fig10b": {"fig10b", "Figure 10(b): CL-P vs δ on ORKUx5 (θ=0.1, 0.2)", func(p Params) (*Table, error) {
		return Figure10(p, dataset.ORKULike, 5, []float64{0.1, 0.2}, "fig10b")
	}},
	"fig10c": {"fig10c", "Figure 10(c): CL-P vs δ on DBLPx5 (θ=0.3, 0.4)", func(p Params) (*Table, error) {
		return Figure10(p, dataset.DBLPLike, 5, []float64{0.3, 0.4}, "fig10c")
	}},
	"fig11": {"fig11", "Figure 11: algorithms vs θ for k=25 (ORKU)", Figure11},
	"fig12a": {"fig12a", "Figure 12(a): VJ/VJ-NL/CL vs #partitions on DBLP", func(p Params) (*Table, error) {
		return Figure12(p, dataset.DBLPLike, 1, "fig12a")
	}},
	"fig12b": {"fig12b", "Figure 12(b): VJ/VJ-NL/CL vs #partitions on DBLPx5", func(p Params) (*Table, error) {
		return Figure12(p, dataset.DBLPLike, 5, "fig12b")
	}},
	"fig13": {"fig13", "Figure 13: CL-P vs #partitions on DBLPx5", Figure13},

	"ablation-ordering":   {"ablation-ordering", "Ablation: frequency reordering on/off (§4)", AblationOrdering},
	"ablation-lemma53":    {"ablation-lemma53", "Ablation: Lemma 5.3 vs uniform joining threshold (§5.2)", AblationLemma53},
	"ablation-triangle":   {"ablation-triangle", "Ablation: triangle filtering in expansion on/off (§5.3)", AblationTriangle},
	"ablation-clustering": {"ablation-clustering", "Ablation: pair-derived vs random-centroid clustering (§5.1)", AblationClustering},
	"baselines":           {"baselines", "Paper algorithms vs the §2 baselines (V-SMART, ClusterJoin)", Baselines},
}

// Names returns the experiment names in a stable order (figures first,
// then ablations).
func Names() []string {
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get fetches an experiment by name.
func Get(name string) (Experiment, error) {
	e, ok := Registry[name]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (use one of %v)", name, Names())
	}
	return e, nil
}
