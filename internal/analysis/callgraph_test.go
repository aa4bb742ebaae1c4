package analysis

import (
	"strings"
	"testing"
)

func loadGraphPkg(t *testing.T) *CallGraph {
	t.Helper()
	pkgs, err := Load("", "./testdata/src/graph")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load matched %d packages, want 1", len(pkgs))
	}
	return BuildCallGraph(pkgs)
}

func node(t *testing.T, g *CallGraph, suffix string) *FuncNode {
	t.Helper()
	for _, n := range g.Decls() {
		if strings.HasSuffix(n.Name, suffix) {
			return n
		}
	}
	t.Fatalf("no node with suffix %q", suffix)
	return nil
}

// TestCallGraphEdges pins edge construction: calls inside goroutine
// closures attribute to the enclosing declaration, and method values
// produce reference (non-direct) edges.
func TestCallGraphEdges(t *testing.T) {
	g := loadGraphPkg(t)

	handler := node(t, g, ".handler")
	var toHelper *CallEdge
	for i, e := range handler.Out {
		if strings.HasSuffix(e.Callee.Name, ".helper") {
			toHelper = &handler.Out[i]
		}
	}
	if toHelper == nil {
		t.Fatalf("handler has no edge to helper (closure body not attributed); edges: %v", edgeNames(handler))
	}
	if !toHelper.Direct {
		t.Errorf("handler → helper should be a direct call edge")
	}

	viaValue := node(t, g, ".viaValue")
	var toMutate *CallEdge
	for i, e := range viaValue.Out {
		if strings.HasSuffix(e.Callee.Name, ".doMutate") {
			toMutate = &viaValue.Out[i]
		}
	}
	if toMutate == nil {
		t.Fatalf("viaValue has no edge to doMutate (method value not recorded); edges: %v", edgeNames(viaValue))
	}
	if toMutate.Direct {
		t.Errorf("viaValue → doMutate is a method value, want a reference (non-direct) edge")
	}
}

// TestCallGraphReaching pins the transitive fact computation: exactly
// helper, handler (and do itself) reach the hedged method.
func TestCallGraphReaching(t *testing.T) {
	g := loadGraphPkg(t)
	isDo := func(n *FuncNode) bool { return strings.HasSuffix(n.Name, "client).do") }
	set := g.Reaching(isDo)

	for _, want := range []string{".helper", ".handler", "client).do"} {
		if !set[node(t, g, want)] {
			t.Errorf("Reaching(do) should contain %s", want)
		}
	}
	for _, wantNot := range []string{".viaValue", ".retry", ".kernel", ".unrelated"} {
		if set[node(t, g, wantNot)] {
			t.Errorf("Reaching(do) should not contain %s", wantNot)
		}
	}

	path := g.PathTo(node(t, g, ".handler"), isDo)
	if len(path) != 2 {
		t.Fatalf("PathTo(handler, do) = %d edges, want 2 (handler → helper → do)", len(path))
	}
	if s := PathString(node(t, g, ".handler"), path); !strings.Contains(s, "helper") || !strings.Contains(s, "do") {
		t.Errorf("PathString = %q, want handler → helper → do shape", s)
	}
}

func edgeNames(n *FuncNode) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Callee.Name)
	}
	return out
}
