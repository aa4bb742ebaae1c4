// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis API surface, sized for this
// repository's own lint passes (cmd/ranklint). The container building
// this repo has no module proxy access, so the real x/tools module is
// unavailable; the types here mirror its shapes (Analyzer, Pass,
// Diagnostic) closely enough that migrating the passes onto x/tools
// later is a mechanical import swap.
//
// The framework loads packages through `go list -export -deps -json`
// (see load.go): target packages are parsed and type-checked from
// source while their dependencies are imported from the build cache's
// export data, which keeps a full-repo run under a second. Analyzers
// therefore see complete go/types information, not just syntax.
//
// Diagnostics can be suppressed at the offending line (or the line
// above it) with a directive comment carrying a mandatory reason:
//
//	//ranklint:ignore reason the invariant is upheld manually here
//
// A reason-less directive is itself reported, so suppressions stay
// auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static-analysis pass: a named invariant
// checker run over a single type-checked package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -run filters and
	// testdata. By convention it is a single lowercase word.
	Name string

	// Doc is the analyzer's documentation: the first line is a short
	// summary, the rest explains the invariant it encodes and the
	// runtime check it front-runs.
	Doc string

	// Run applies the analyzer to a package. It reports findings via
	// pass.Report and returns an optional result (unused by this
	// driver, kept for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single package's syntax and
// type information, and the sink its diagnostics go to.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Graph is the static call graph over every package of the current
	// Run. An edge into a package the run did not load resolves to an
	// external node with no outgoing edges.
	Graph *CallGraph

	// Report emits one diagnostic. The runner attaches analyzer
	// identity and applies //ranklint:ignore suppression.
	Report func(Diagnostic)
}

// Reportf emits a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding tied to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.TypesInfo.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}
