// Package walack defines the ranklint analyzer guarding the two-phase
// write-ahead-log contract around shard.Index.SetWriteHook: appends
// happen under the shard lock, the fsync barrier happens strictly
// after it, and an acknowledged write always waited for that barrier.
//
// The runtime side of this contract is the WAL crash drill (25-seed
// kill-during-churn property test, DESIGN.md §14): every acked write
// must survive kill -9. Statically, three rules pin it:
//
//  1. The hook function passed to SetWriteHook runs with the shard
//     write lock held; its body must not fsync (or block on a sync
//     barrier). Only the commit closure it returns may — closures
//     appearing in the hook's return statements are the commit phase
//     and are exempt.
//
//  2. A commit closure obtained inside a mutation (an assignment from a
//     log* call or a WriteHook invocation returning func() error) must
//     be invoked — or handed onward — before any success return.
//     Dropping it, or `return nil` before the first commit() call, acks
//     a write that was never made durable.
//
//  3. No call that reaches an fsync may run while a shard lock (a
//     mutex on a write-hook-carrying type) is held: group commit
//     batches fsyncs precisely so mutations do not serialize on disk
//     flushes.
//
// "Reaches an fsync" is a call-graph fact: (*os.File).Sync and
// functions named sync/fsync (the repo's barrier vocabulary), plus
// everything that can call them.
package walack

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rankjoin/internal/analysis"
)

// Analyzer is the walack pass.
var Analyzer = &analysis.Analyzer{
	Name: "walack",
	Doc:  "check the two-phase WAL write-hook contract: no fsync under the shard lock, commit before every ack",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	g := pass.Graph
	if g == nil {
		return nil, nil
	}
	syncing := g.Reaching(fsyncSink)
	reachesSync := func(fn *types.Func) bool {
		if fn == nil {
			return false
		}
		return syncing[g.NodeOf(fn)]
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkHookLiteral(pass, call, reachesSync)
			}
			if decl, ok := n.(*ast.FuncDecl); ok && decl.Body != nil {
				checkCommitUse(pass, decl)
				checkLockedFsync(pass, decl, reachesSync)
			}
			return true
		})
	}
	return nil, nil
}

// fsyncSink matches the durability barrier itself: (*os.File).Sync and
// the repo's sync/fsync-named wrappers.
func fsyncSink(n *analysis.FuncNode) bool {
	switch strings.ToLower(n.Obj.Name()) {
	case "sync", "fsync":
	default:
		return false
	}
	// Plain `sync` methods are everywhere; require either the os.File
	// method itself or a lowercase-named repo wrapper, or Sync on a
	// file-like receiver.
	if n.Obj.Name() != "Sync" {
		return true
	}
	recv := n.Obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// checkHookLiteral enforces rule 1 on `x.SetWriteHook(func(...) ... )`:
// the literal's body, minus the commit closures it returns, must not
// reach a sync barrier.
func checkHookLiteral(pass *analysis.Pass, call *ast.CallExpr, reachesSync func(*types.Func) bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "SetWriteHook" || len(call.Args) != 1 {
		return
	}
	hook, ok := call.Args[0].(*ast.FuncLit)
	if !ok {
		return
	}
	// Commit closures: function literals appearing in the hook's own
	// return statements (not in returns of nested literals).
	exempt := make(map[*ast.FuncLit]bool)
	markReturnedLiterals(hook.Body, exempt)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && exempt[lit] {
			return false // the commit phase may (must) sync
		}
		inner, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass, inner); reachesSync(fn) {
			pass.Reportf(inner.Pos(),
				"write-hook append phase calls %s, which reaches an fsync; the hook runs under the shard write lock — sync only in the returned commit closure",
				analysis.ExprString(inner.Fun))
		}
		return true
	}
	ast.Inspect(hook.Body, walk)
}

// markReturnedLiterals records function literals returned by body,
// descending into blocks but not into nested function literals (their
// returns are not the hook's returns).
func markReturnedLiterals(body *ast.BlockStmt, exempt map[*ast.FuncLit]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if lit, ok := res.(*ast.FuncLit); ok {
					exempt[lit] = true
				}
			}
		}
		return true
	})
}

// checkCommitUse enforces rule 2: a commit closure variable must be
// invoked or handed onward before any success return that follows its
// assignment.
func checkCommitUse(pass *analysis.Pass, decl *ast.FuncDecl) {
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		asgn, ok := n.(*ast.AssignStmt)
		if !ok || len(asgn.Lhs) == 0 || len(asgn.Rhs) != 1 {
			return true
		}
		call, ok := asgn.Rhs[0].(*ast.CallExpr)
		if !ok || !isCommitSource(pass, call) {
			return true
		}
		lhs, ok := asgn.Lhs[0].(*ast.Ident)
		if !ok || lhs.Name == "_" {
			pass.Reportf(asgn.Pos(),
				"commit closure from %s is discarded; invoke it before acking or the write is not durable",
				analysis.ExprString(call.Fun))
			return true
		}
		obj := pass.TypesInfo.ObjectOf(lhs)
		if obj == nil {
			return true
		}
		checkCommitFlow(pass, decl, lhs, obj, call)
		return true
	})
}

// checkCommitFlow classifies every use of the commit variable and
// reports drops and premature success returns.
func checkCommitFlow(pass *analysis.Pass, decl *ast.FuncDecl, lhs *ast.Ident, obj types.Object, src *ast.CallExpr) {
	// firstUse is the position of the earliest invocation or escape
	// (returned / passed onward): the point where responsibility for
	// the barrier is met or transferred.
	firstUse := token.Pos(-1)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				if firstUse < 0 || n.Pos() < firstUse {
					firstUse = n.Pos()
				}
				return true
			}
			for _, arg := range n.Args {
				if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					if firstUse < 0 || n.Pos() < firstUse {
						firstUse = n.Pos()
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := res.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					if firstUse < 0 || n.Pos() < firstUse {
						firstUse = n.Pos()
					}
				}
			}
		}
		return true
	})
	if firstUse < 0 {
		pass.Reportf(lhs.Pos(),
			"commit closure %s is never invoked; every success path must run the fsync barrier before acking", lhs.Name)
		return
	}
	// Success returns between the assignment and the first use ack a
	// write whose barrier never ran. Error returns (non-nil result) are
	// failure paths and legal.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Pos() > src.End() {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= src.End() || ret.Pos() >= firstUse {
			return true
		}
		if isSuccessReturn(pass, ret) {
			pass.Reportf(ret.Pos(),
				"success return before commit closure %s runs; the ack would race the fsync barrier", lhs.Name)
		}
		return true
	})
}

// isCommitSource matches calls yielding a commit closure: a log*
// function, or an invocation of a WriteHook-typed value, returning
// exactly func() error.
func isCommitSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.TypeOf(call).(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	if !isErrorType(sig.Results().At(0).Type()) {
		return false
	}
	// Callee name starts with "log" (logLocked et al.)?
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if strings.HasPrefix(fun.Name, "log") {
			return true
		}
	case *ast.SelectorExpr:
		if strings.HasPrefix(fun.Sel.Name, "log") {
			return true
		}
	}
	// Or an invocation of a WriteHook-typed value.
	if named, ok := pass.TypeOf(call.Fun).(*types.Named); ok && named.Obj().Name() == "WriteHook" {
		return true
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// isSuccessReturn reports whether ret's final result is statically nil
// (or absent): the shape of an ack.
func isSuccessReturn(pass *analysis.Pass, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return true
	}
	last := ret.Results[len(ret.Results)-1]
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return true
	}
	return false
}

// checkLockedFsync enforces rule 3: between x.mu.Lock()/RLock() and the
// matching unlock on a write-hook-carrying type, no call may reach an
// fsync.
func checkLockedFsync(pass *analysis.Pass, decl *ast.FuncDecl, reachesSync func(*types.Func) bool) {
	type region struct{ start, end token.Pos }
	var regions []region
	open := make(map[string]token.Pos) // lock expr string → lock pos

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, onShard := shardLockOp(pass, call)
		if !onShard {
			return true
		}
		switch op {
		case "Lock", "RLock":
			open[key] = call.End()
		case "Unlock", "RUnlock":
			if start, ok := open[key]; ok {
				if isDeferred(decl.Body, call) {
					regions = append(regions, region{start, decl.Body.End()})
				} else {
					regions = append(regions, region{start, call.Pos()})
				}
				delete(open, key)
			}
		}
		return true
	})
	openKeys := make([]string, 0, len(open))
	for key := range open {
		openKeys = append(openKeys, key)
	}
	sort.Strings(openKeys) // deterministic region order
	for _, key := range openKeys {
		regions = append(regions, region{open[key], decl.Body.End()})
	}
	if len(regions) == 0 {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		inRegion := false
		for _, r := range regions {
			if call.Pos() > r.start && call.Pos() < r.end {
				inRegion = true
				break
			}
		}
		if !inRegion {
			return true
		}
		if fn := calleeFunc(pass, call); reachesSync(fn) {
			pass.Reportf(call.Pos(),
				"%s reaches an fsync while the shard lock is held; group commit requires the barrier to run after unlock",
				analysis.ExprString(call.Fun))
		}
		return true
	})
}

// shardLockOp matches x.mu.Lock/RLock/Unlock/RUnlock where x's type
// carries a write hook (field writeHook, field of type WriteHook, or a
// SetWriteHook method) — the definition of a "shard lock".
func shardLockOp(pass *analysis.Pass, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	field, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	t := pass.TypeOf(field.X)
	if t == nil {
		return "", "", false
	}
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	named, okn := t.(*types.Named)
	if !okn || !hasWriteHook(named) {
		return "", "", false
	}
	return analysis.ExprString(sel.X), sel.Sel.Name, true
}

// hasWriteHook reports whether named carries the write-hook surface.
func hasWriteHook(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == "SetWriteHook" {
			return true
		}
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "writeHook" {
			return true
		}
		if ft, ok := f.Type().(*types.Named); ok && ft.Obj().Name() == "WriteHook" {
			return true
		}
	}
	return false
}

// isDeferred reports whether call appears as a defer statement's call.
func isDeferred(body *ast.BlockStmt, call *ast.CallExpr) bool {
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			deferred = true
		}
		return !deferred
	})
	return deferred
}

// calleeFunc resolves a call's static callee, nil for dynamic calls.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
