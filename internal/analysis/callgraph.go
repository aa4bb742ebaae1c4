package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the cross-function layer: a static call graph over every
// package handed to one Run invocation. It is deliberately lightweight
// — direct calls, method calls and function/method values only, no
// SSA, no interface devirtualization — which makes it conservative in
// the direction analyzers here need: an edge exists for anything that
// *may* call the target, so reachability proofs of absence (nohedge,
// walack) stay sound for the shapes this repo uses, at the cost of
// ignoring calls through plain function-typed variables and
// interfaces.
//
// Node identity is the types.Func full name (e.g.
// "(*rankjoin/internal/cluster.peerClient).do"), which is stable across
// the source-checked and export-data views of a package. That is what
// lets a graph built over `./...` connect internal/server handlers to
// internal/cluster RPC methods even though each package was
// type-checked separately.

// FuncName returns the stable node key for fn: the full name of its
// generic origin, so instantiations collapse onto their declaration.
func FuncName(fn *types.Func) string { return fn.Origin().FullName() }

// A CallEdge is one resolved reference from a function body to another
// function: a call expression (Direct) or a function/method value
// (hedged as a possible call).
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
	Direct bool
}

// A FuncNode is one function or method in the graph. Nodes with a Decl
// were loaded from source; external nodes (stdlib, packages outside the
// run) carry only their identity and have no outgoing edges.
type FuncNode struct {
	Name string
	Obj  *types.Func
	Decl *ast.FuncDecl // nil for external functions
	Pkg  *Package      // nil for external functions
	Out  []CallEdge
}

// HasBody reports whether the node's source was part of the run.
func (n *FuncNode) HasBody() bool { return n.Decl != nil && n.Decl.Body != nil }

// ShortName renders the node for diagnostics: method receivers keep
// their type but drop the package path.
func (n *FuncNode) ShortName() string {
	name := n.Name
	slash := strings.LastIndexByte(name, '/')
	if slash < 0 {
		return name
	}
	prefix := ""
	if strings.HasPrefix(name, "(*") {
		prefix = "(*"
	} else if strings.HasPrefix(name, "(") {
		prefix = "("
	}
	return prefix + name[slash+1:]
}

// A CallGraph indexes every FuncNode of one Run by full name.
type CallGraph struct {
	nodes map[string]*FuncNode
	decls []*FuncNode // nodes with bodies, in deterministic order
}

// Node returns the node with the given full name, or nil.
func (g *CallGraph) Node(name string) *FuncNode { return g.nodes[name] }

// NodeOf returns the node for fn, creating an external node if the
// function was not part of the run.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.intern(fn) }

// Decls returns every node loaded from source, in (package, position)
// order.
func (g *CallGraph) Decls() []*FuncNode { return g.decls }

// Reaching computes the set of nodes from which some sink node is
// reachable over call edges; sinks themselves are included. This is the
// transitive "fact" analyzers propagate: e.g. sink = hedged RPC method,
// result = every function that may hedge.
func (g *CallGraph) Reaching(sink func(*FuncNode) bool) map[*FuncNode]bool {
	names := make([]string, 0, len(g.nodes))
	for name := range g.nodes {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic queue order regardless of interning order
	rev := make(map[*FuncNode][]*FuncNode)
	var queue []*FuncNode
	set := make(map[*FuncNode]bool)
	for _, name := range names {
		n := g.nodes[name]
		for _, e := range n.Out {
			rev[e.Callee] = append(rev[e.Callee], n)
		}
		if sink(n) {
			set[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, caller := range rev[n] {
			if !set[caller] {
				set[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return set
}

// PathTo returns a shortest chain of call edges from `from` to a sink,
// or nil when no sink is reachable. The edge positions let analyzers
// report at the exact call that starts the offending chain.
func (g *CallGraph) PathTo(from *FuncNode, sink func(*FuncNode) bool) []CallEdge {
	type visit struct {
		node *FuncNode
		path []CallEdge
	}
	seen := map[*FuncNode]bool{from: true}
	queue := []visit{{node: from}}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range v.node.Out {
			if sink(e.Callee) {
				return append(append([]CallEdge(nil), v.path...), e)
			}
			if !seen[e.Callee] {
				seen[e.Callee] = true
				path := append(append([]CallEdge(nil), v.path...), e)
				queue = append(queue, visit{node: e.Callee, path: path})
			}
		}
	}
	return nil
}

// PathString renders a call chain for diagnostics:
// "a → b → (*peerClient).do".
func PathString(from *FuncNode, path []CallEdge) string {
	var b strings.Builder
	b.WriteString(from.ShortName())
	for _, e := range path {
		b.WriteString(" → ")
		b.WriteString(e.Callee.ShortName())
	}
	return b.String()
}

// BuildCallGraph constructs the call graph over every declared function
// of pkgs. Calls and function values inside nested function literals
// are attributed to the enclosing declaration — conservative and
// exactly right for reachability ("this handler spawns a goroutine that
// calls X" is still a path from the handler to X).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.TypesInfo.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := g.intern(fn)
				n.Decl = decl
				n.Pkg = pkg
				g.decls = append(g.decls, n)
			}
		}
	}
	sort.Slice(g.decls, func(i, j int) bool {
		if g.decls[i].Pkg.PkgPath != g.decls[j].Pkg.PkgPath {
			return g.decls[i].Pkg.PkgPath < g.decls[j].Pkg.PkgPath
		}
		return g.decls[i].Decl.Pos() < g.decls[j].Decl.Pos()
	})
	for _, n := range g.decls {
		if n.HasBody() {
			g.addEdges(n)
		}
	}
	return g
}

func (g *CallGraph) intern(fn *types.Func) *FuncNode {
	name := FuncName(fn)
	if n, ok := g.nodes[name]; ok {
		return n
	}
	n := &FuncNode{Name: name, Obj: fn.Origin()}
	g.nodes[name] = n
	return n
}

// addEdges resolves every function-valued identifier in the body. An
// identifier in call position yields a Direct edge (positioned at the
// call); any other use — a method value handed to a retry helper, a
// func passed to a goroutine — yields a reference edge, treated as a
// possible call.
func (g *CallGraph) addEdges(n *FuncNode) {
	callPos := make(map[*ast.Ident]token.Pos)
	seen := make(map[string]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if id := terminalIdent(node.Fun); id != nil {
				callPos[id] = node.Lparen
			}
		case *ast.Ident:
			fn, ok := n.Pkg.TypesInfo.Uses[node].(*types.Func)
			if !ok {
				return true
			}
			callee := g.intern(fn)
			pos, direct := node.Pos(), false
			if p, ok := callPos[node]; ok {
				pos, direct = p, true
			}
			key := callee.Name
			if direct {
				key += "()"
			}
			if !seen[key] {
				seen[key] = true
				n.Out = append(n.Out, CallEdge{Callee: callee, Pos: pos, Direct: direct})
			}
		}
		return true
	})
}

// terminalIdent unwraps a call's Fun expression to the identifier that
// names the callee: pkg.F → F, recv.M → M, f[T] → f, (f) → f.
func terminalIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}
