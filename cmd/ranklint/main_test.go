package main

import (
	"strings"
	"testing"

	"rankjoin/internal/analysis"
	"rankjoin/internal/analysis/passes"
)

func names(sel []*analysis.Analyzer) []string {
	out := make([]string, len(sel))
	for i, a := range sel {
		out[i] = a.Name
	}
	return out
}

// TestSelectExactNames pins -run's matching contract: names resolve by
// exact match only — no prefixes, no globs — and unknown names are an
// error, not a silent no-op.
func TestSelectExactNames(t *testing.T) {
	all := passes.All()

	sel, err := selectAnalyzers(all, "spanend,wraperr")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if len(sel) != 2 || sel[0].Name != "spanend" || sel[1].Name != "wraperr" {
		t.Fatalf("selected %v, want [spanend wraperr]", names(sel))
	}

	// Whitespace around names is tolerated.
	sel, err = selectAnalyzers(all, " nohedge , walack ")
	if err != nil {
		t.Fatalf("selectAnalyzers with spaces: %v", err)
	}
	if len(sel) != 2 || sel[0].Name != "nohedge" || sel[1].Name != "walack" {
		t.Fatalf("selected %v, want [nohedge walack]", names(sel))
	}

	// Prefixes of real analyzer names must NOT match.
	for _, bad := range []string{"span", "lock", "nosuch", "spanend,nosuch"} {
		if _, err := selectAnalyzers(all, bad); err == nil {
			t.Errorf("selectAnalyzers(%q) = nil error, want unknown-analyzer error", bad)
		} else if !strings.Contains(err.Error(), "unknown analyzer") {
			t.Errorf("selectAnalyzers(%q) error = %q, want it to mention the unknown analyzer", bad, err)
		}
	}

	// Empty -run means everything.
	sel, err = selectAnalyzers(all, "")
	if err != nil {
		t.Fatalf("selectAnalyzers(\"\"): %v", err)
	}
	if len(sel) != len(all) {
		t.Fatalf("empty -run selected %d analyzers, want all %d", len(sel), len(all))
	}
}

// TestListDocs pins the -list format: every registered analyzer has a
// non-empty one-line doc, and firstLine trims multi-line docs to the
// summary sentence.
func TestListDocs(t *testing.T) {
	for _, a := range passes.All() {
		doc := firstLine(a.Doc)
		if doc == "" {
			t.Errorf("analyzer %s has an empty doc line", a.Name)
		}
		if strings.ContainsRune(doc, '\n') {
			t.Errorf("analyzer %s: firstLine left a newline in %q", a.Name, doc)
		}
	}
	if got := firstLine("summary\ndetail"); got != "summary" {
		t.Errorf("firstLine = %q, want %q", got, "summary")
	}
	if got := firstLine("single"); got != "single" {
		t.Errorf("firstLine = %q, want %q", got, "single")
	}
}
