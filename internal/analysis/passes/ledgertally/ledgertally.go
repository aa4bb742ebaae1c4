// Package ledgertally defines the ranklint analyzer enforcing the
// candidate-conservation ledger invariant in the join kernels.
//
// The obs filter counters obey a conservation law (obs.FilterDelta):
// every candidate pair a kernel enumerates meets exactly one fate —
// pruned by a filter, accepted unverified, or verified — and emitted
// results are tallied. rankcheck asserts this dynamically after every
// differential trial; this analyzer front-runs it by demanding that
// any kernel-package function which *constructs* result pairs also
// touches the ledger.
//
// Concretely: inside the kernel packages (vj, ppjoin, clusterjoin,
// vsmart, fsjoin, core), a function that creates a new result pair —
// a call to rankings.NewPair or a composite literal of a type named
// Pair — must also reference the accounting machinery: a value of a
// type named Stats, FilterCounters or FilterDelta. Functions that only
// move existing pairs around (dedup, merge, sort) construct nothing
// and are exempt, which is exactly right: conservation is about where
// candidates are generated and resolved, not where results are copied.
//
// Signature, position and verification fates need no rule of their
// own: filters.Resolve is their only non-oracle caller and takes the
// ledger as a parameter, so the type checker enforces that tally.
package ledgertally

import (
	"go/ast"
	"go/types"
	"regexp"

	"rankjoin/internal/analysis"
)

// Analyzer is the ledgertally pass.
var Analyzer = &analysis.Analyzer{
	Name: "ledgertally",
	Doc:  "check that kernel functions constructing result pairs tally the obs filter-counter ledger",
	Run:  run,
}

// kernelPackages names the packages whose kernels feed the
// conservation law. Matching is by package name so analyzer testdata
// can opt in with `package vj`.
var kernelPackages = map[string]bool{
	"vj":          true,
	"ppjoin":      true,
	"clusterjoin": true,
	"vsmart":      true,
	"fsjoin":      true,
	"core":        true,
}

// ledgerTypeName matches the names of accounting types whose use in a
// function counts as touching the ledger: the obs ledger in its plain
// and atomic forms, and the per-run stats that hold one (vj.Stats,
// core.Stats).
var ledgerTypeName = regexp.MustCompile(`^(FilterDelta|FilterCounters|Stats)$`)

func run(pass *analysis.Pass) (any, error) {
	if !kernelPackages[pass.Pkg.Name()] {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var firstPair ast.Node
	touchesLedger := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if firstPair == nil && isNewPairCall(pass, n) {
				firstPair = n
			}
		case *ast.CompositeLit:
			if firstPair == nil && isPairLiteral(pass, n) {
				firstPair = n
			}
		case *ast.Ident:
			if !touchesLedger && identTouchesLedger(pass, n) {
				touchesLedger = true
			}
		}
		return true
	})
	if firstPair != nil && !touchesLedger {
		pass.Reportf(firstPair.Pos(),
			"kernel function %s constructs result pairs but never touches the filter ledger (Stats / FilterCounters / FilterDelta); the conservation law Generated = pruned + verified cannot hold",
			fd.Name.Name)
	}
}

// isNewPairCall matches calls to a function named NewPair (any
// package) returning a pair value.
func isNewPairCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "NewPair"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "NewPair"
	}
	return false
}

// isPairLiteral matches non-empty composite literals of a named type
// called Pair. The zero literal (`return Pair{}, false` on a pruned
// path) constructs no result and is exempt.
func isPairLiteral(pass *analysis.Pass, lit *ast.CompositeLit) bool {
	if len(lit.Elts) == 0 {
		return false
	}
	t := pass.TypeOf(lit)
	return namedTypeName(t) == "Pair"
}

// identTouchesLedger reports whether the identifier denotes a value
// (or field owner) of a ledger type.
func identTouchesLedger(pass *analysis.Pass, id *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	switch obj.(type) {
	case *types.Var, *types.TypeName:
		name := namedTypeName(obj.Type())
		return name != "" && ledgerTypeName.MatchString(name)
	}
	return false
}

// namedTypeName unwraps pointers and slices and returns the name of
// the underlying named type, or "".
func namedTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			return u.Obj().Name()
		case *types.Alias:
			t = types.Unalias(t)
		default:
			return ""
		}
	}
}
