package passes_test

import (
	"testing"

	"rankjoin/internal/analysis/analysistest"
	"rankjoin/internal/analysis/passes"
)

// TestAllAnalyzersOnCleanPackage is the negative test: a package that
// uses spans, locks, map iteration, sentinel errors, hedged reads,
// WAL write hooks, contexts and metric writers idiomatically must
// produce zero findings under every registered analyzer.
func TestAllAnalyzersOnCleanPackage(t *testing.T) {
	for _, a := range passes.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, a, "clean")
		})
	}
}

// TestRegistry pins the analyzer set: adding or removing a pass should
// be a conscious act that also updates DESIGN.md §10.
func TestRegistry(t *testing.T) {
	want := []string{
		"ctxflow", "ledgertally", "lockorder", "maporder", "metricreg",
		"nohedge", "spanend", "walack", "wraperr",
	}
	all := passes.All()
	if len(all) != len(want) {
		t.Fatalf("passes.All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("passes.All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run", a.Name)
		}
	}
}
