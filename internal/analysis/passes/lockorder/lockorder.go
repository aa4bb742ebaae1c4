// Package lockorder defines the ranklint analyzer catching
// self-deadlocks in the shard/epoch locking discipline: calling a
// method that acquires a struct's mutex while that same mutex is
// already held by the caller.
//
// Go's sync.RWMutex is not reentrant, and an RLock held while a writer
// is queued blocks a second RLock on the same goroutine forever — the
// deadlock class the background re-pivoting CAS dance in
// internal/shard is exposed to: a sweep holding s.mu.RLock() must not
// call s.Len() (which RLocks) or any mutating method (which Locks).
// The race detector cannot see this — nothing races, the goroutine
// just stops — and it only reproduces under writer pressure.
//
// The analysis is intra-package and name-driven: first it collects,
// per named type, the set of "acquiring" methods — those that call
// Lock/RLock on a sync.Mutex/RWMutex field of their receiver. Then,
// inside every function, between a `v.mu.Lock()` (or RLock) statement
// and the matching `v.mu.Unlock()` (or function end when the unlock is
// deferred), any call `v.M(...)` where M is an acquiring method of v's
// type is reported. Calls inside nested function literals are skipped:
// a goroutine or deferred closure typically runs after the region is
// released.
//
// What it cannot see is a lock *set* held across a fan-out: two
// Batches each holding one shard's RLock and waiting for the other's
// behind a queued writer re-acquire nothing they hold, so no call
// matches the rule. That cycle is a property of a schedule, not of a
// function. Today's sweeps hold one shard at a time; a sweep that
// brings a cross-shard hold back is what TestSweepsDoNotDeadlockWriters
// (internal/shard, run ×20 in CI) would catch. The pass proves
// re-entrancy on one receiver's field and claims nothing beyond it.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"rankjoin/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check for calls into lock-acquiring methods while the same lock is held (non-reentrant RWMutex discipline)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	acquiring := collectAcquiringMethods(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body, acquiring)
				}
			case *ast.FuncLit:
				// Each literal is its own region scope; checkBody skips
				// nested literals, so visiting them here covers their
				// bodies exactly once.
				checkBody(pass, fn.Body, acquiring)
			}
			return true
		})
	}
	return nil, nil
}

// methodKey identifies a method of a named type within this package.
type methodKey struct {
	typ    *types.TypeName
	method string
}

// lockRef is a resolved `v.field` mutex reference: the object v and
// the field name.
type lockRef struct {
	obj   types.Object
	field string
}

// collectAcquiringMethods maps (type, method) to the set of receiver
// mutex fields the method locks (by Lock or RLock), e.g.
// (Shard, Insert) -> {mu}.
func collectAcquiringMethods(pass *analysis.Pass) map[methodKey]map[string]bool {
	out := make(map[methodKey]map[string]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvType := receiverTypeName(pass, fd)
			if recvType == nil {
				continue
			}
			var recvObj types.Object
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvObj = pass.TypesInfo.Defs[names[0]]
			}
			if recvObj == nil {
				continue
			}
			fields := make(map[string]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if ref, op := mutexOp(pass, call); op == "Lock" || op == "RLock" {
					if ref.obj == recvObj {
						fields[ref.field] = true
					}
				}
				return true
			})
			if len(fields) > 0 {
				out[methodKey{recvType, fd.Name.Name}] = fields
			}
		}
	}
	return out
}

// receiverTypeName resolves the named type of a method receiver.
func receiverTypeName(pass *analysis.Pass, fd *ast.FuncDecl) *types.TypeName {
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// mutexOp matches `v.field.Op()` where field is a sync.Mutex or
// sync.RWMutex and Op is Lock/RLock/Unlock/RUnlock, returning the
// resolved reference and the operation ("" otherwise).
func mutexOp(pass *analysis.Pass, call *ast.CallExpr) (lockRef, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockRef{}, ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockRef{}, ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return lockRef{}, ""
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok {
		return lockRef{}, ""
	}
	obj := pass.TypesInfo.Uses[base]
	if obj == nil {
		return lockRef{}, ""
	}
	ft := pass.TypeOf(inner)
	name := mutexTypeName(ft)
	if name == "" {
		return lockRef{}, ""
	}
	if name == "Mutex" && (op == "RLock" || op == "RUnlock") {
		return lockRef{}, ""
	}
	return lockRef{obj: obj, field: inner.Sel.Name}, op
}

func mutexTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	if obj.Name() == "Mutex" || obj.Name() == "RWMutex" {
		return obj.Name()
	}
	return ""
}

// region is one held-lock interval within a function body.
type region struct {
	ref   lockRef
	from  token.Pos // after the acquire
	to    token.Pos // the release, or function end when deferred
	write bool
}

// checkBody finds lock regions in one function body (not descending
// into nested literals) and reports acquiring calls inside them.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, acquiring map[methodKey]map[string]bool) {
	var regions []region

	// Pass 1: locate acquires and their releases, skipping nested
	// function literals.
	var acquires []struct {
		ref lockRef
		pos token.Pos
		op  string
	}
	releases := make(map[lockRef][]token.Pos)
	deferred := make(map[lockRef]bool)
	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		ref, op := mutexOp(pass, call)
		switch op {
		case "Lock", "RLock":
			acquires = append(acquires, struct {
				ref lockRef
				pos token.Pos
				op  string
			}{ref, call.End(), op})
		case "Unlock", "RUnlock":
			if isDeferredCall(body, call) {
				deferred[ref] = true
			} else {
				releases[ref] = append(releases[ref], call.Pos())
			}
		}
	})
	for _, a := range acquires {
		to := body.End()
		for _, r := range releases[a.ref] {
			if r > a.pos && r < to {
				to = r
			}
		}
		regions = append(regions, region{ref: a.ref, from: a.pos, to: to, write: a.op == "Lock"})
	}
	if len(regions) == 0 {
		return
	}

	// Pass 2: flag method calls on the same object inside a region when
	// the callee acquires the same mutex field.
	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[base]
		if obj == nil {
			return
		}
		tn := namedTypeOf(obj.Type())
		if tn == nil {
			return
		}
		fields := acquiring[methodKey{tn, sel.Sel.Name}]
		if len(fields) == 0 {
			return
		}
		for _, rg := range regions {
			if rg.ref.obj != obj || !fields[rg.ref.field] {
				continue
			}
			if call.Pos() > rg.from && call.Pos() < rg.to {
				pass.Reportf(call.Pos(),
					"%s.%s acquires %s.%s, but the caller already holds it here (non-reentrant lock would self-deadlock)",
					base.Name, sel.Sel.Name, base.Name, rg.ref.field)
				return
			}
		}
	})
}

// walkShallow visits nodes of body without entering nested function
// literals.
func walkShallow(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// isDeferredCall reports whether the call is the direct expression of a
// defer statement in body.
func isDeferredCall(body *ast.BlockStmt, call *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call == call {
			found = true
		}
		return !found
	})
	return found
}

func namedTypeOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
