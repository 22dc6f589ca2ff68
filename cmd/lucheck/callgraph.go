package main

// The module-wide call graph the interprocedural rules run on. Nodes
// are function bodies: named functions and methods (*types.Func) plus
// every function literal. Edges are added for
//
//   - direct calls (f(), pkg.F(), recv.M() on a concrete type),
//   - interface dispatch, approximated by the type set: a call i.M()
//     through an interface adds edges to M on every module-local
//     concrete type whose method set satisfies the interface (class
//     hierarchy analysis — sound for module-local callees, which is
//     the only thing the rules report on),
//   - method values and function values: x.M or f used as a value and
//     later called through a variable resolves flow-insensitively to
//     everything ever assigned to that variable,
//   - function-typed arguments: a literal (or named function) passed
//     to a call is treated as callable from the caller — conservative
//     for callbacks like sort.Slice whose bodies we cannot see.
//
// Closures handed to the sched executors (sched.Run, sched.Execute*)
// and `go` statements inside the worker packages are recorded as worker
// roots:
// everything reachable from them runs on a worker goroutine, which is
// what the interprocedural shared-capture rule needs to know. Each
// call edge also records whether a sync lock is lexically held at the
// call site, so lock protection established in the caller transfers to
// the callee's writes.
import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cgNode is one function body in the call graph.
type cgNode struct {
	pi   *pkgInfo
	obj  *types.Func   // nil for function literals
	lit  *ast.FuncLit  // nil for named functions
	decl *ast.FuncDecl // nil for function literals
	body *ast.BlockStmt

	calls      []*cgEdge // outgoing edges
	workerRoot bool      // body runs on a worker goroutine by construction
	goLit      bool      // literal spawned directly by a `go` statement
}

// name returns a human-readable identifier for diagnostics.
func (n *cgNode) name() string {
	if n.obj != nil {
		return n.obj.Name()
	}
	return "func literal"
}

// pos returns the declaration position.
func (n *cgNode) pos() token.Pos {
	if n.decl != nil {
		return n.decl.Pos()
	}
	return n.lit.Pos()
}

// end returns the end of the declaration.
func (n *cgNode) end() token.Pos {
	if n.decl != nil {
		return n.decl.End()
	}
	return n.lit.End()
}

// cgEdge is one call (or callable-from) relation.
type cgEdge struct {
	caller *cgNode
	callee *cgNode
	site   *ast.CallExpr // nil for passed-as-value edges
	locked bool          // a sync lock is lexically held at the site
}

// callGraph indexes the nodes and edges of the whole module.
type callGraph struct {
	fset      *token.FileSet
	schedPath string // import path of the executor package (worker roots)
	byObj     map[*types.Func]*cgNode
	byLit     map[*ast.FuncLit]*cgNode
	nodes     []*cgNode

	// methodsByName maps a method name to every module-local concrete
	// method with that name, for interface-dispatch approximation.
	methodsByName map[string][]*types.Func
	// funcVals maps a variable object to every function value ever
	// assigned to it anywhere in the module (flow-insensitive).
	funcVals map[types.Object][]*cgNode
}

// buildCallGraph constructs the graph over every loaded package.
func buildCallGraph(fset *token.FileSet, pkgs []*pkgInfo, cfg *config) *callGraph {
	g := &callGraph{
		fset:          fset,
		schedPath:     cfg.modPath + "/internal/sched",
		byObj:         map[*types.Func]*cgNode{},
		byLit:         map[*ast.FuncLit]*cgNode{},
		methodsByName: map[string][]*types.Func{},
		funcVals:      map[types.Object][]*cgNode{},
	}
	// Pass 1: nodes for every function declaration and literal, and the
	// concrete-method index for interface dispatch.
	for _, pi := range pkgs {
		for _, f := range pi.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					if d.Body == nil {
						return true
					}
					obj, _ := pi.info.Defs[d.Name].(*types.Func)
					if obj == nil {
						return true
					}
					node := &cgNode{pi: pi, obj: obj, decl: d, body: d.Body}
					g.byObj[obj] = node
					g.nodes = append(g.nodes, node)
					if d.Recv != nil {
						g.methodsByName[obj.Name()] = append(g.methodsByName[obj.Name()], obj)
					}
				case *ast.FuncLit:
					node := &cgNode{pi: pi, lit: d, body: d.Body}
					g.byLit[d] = node
					g.nodes = append(g.nodes, node)
				}
				return true
			})
		}
	}
	// Pass 2: function-value assignments (flow-insensitive).
	for _, pi := range pkgs {
		for _, f := range pi.files {
			g.collectFuncVals(pi, f)
		}
	}
	// Pass 3: edges and worker roots.
	for _, node := range g.nodes {
		g.addEdges(node, cfg)
	}
	return g
}

// funcValue resolves an expression used as a function value to its
// nodes: a literal, a named function or method value, or a variable
// holding previously assigned function values.
func (g *callGraph) funcValue(pi *pkgInfo, e ast.Expr) []*cgNode {
	switch v := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		if n := g.byLit[v]; n != nil {
			return []*cgNode{n}
		}
	case *ast.Ident:
		switch obj := pi.info.Uses[v].(type) {
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return []*cgNode{n}
			}
		case *types.Var:
			return g.funcVals[obj]
		}
	case *ast.SelectorExpr:
		// Method value x.M, or a package-qualified function pkg.F.
		if obj, ok := pi.info.Uses[v.Sel].(*types.Func); ok {
			if sel := pi.info.Selections[v]; sel != nil && isInterface(sel.Recv()) {
				return g.interfaceTargets(v.Sel.Name, sel.Recv())
			}
			if n := g.byObj[obj]; n != nil {
				return []*cgNode{n}
			}
		}
	}
	return nil
}

// collectFuncVals records function values assigned to variables.
func (g *callGraph) collectFuncVals(pi *pkgInfo, f *ast.File) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := pi.info.Defs[id]
		if obj == nil {
			obj = pi.info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return
		}
		if targets := g.funcValue(pi, rhs); len(targets) > 0 {
			g.funcVals[obj] = append(g.funcVals[obj], targets...)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
}

// isInterface reports whether t (or what it points to) is an interface.
func isInterface(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// interfaceTargets approximates i.M() dispatch: every module-local
// concrete method named name whose receiver type implements the
// interface.
func (g *callGraph) interfaceTargets(name string, recv types.Type) []*cgNode {
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*cgNode
	for _, m := range g.methodsByName[name] {
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			if n := g.byObj[m]; n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// addEdges walks one node's body (skipping nested literals, which are
// their own nodes) adding call edges, passed-as-value edges, and worker
// roots. Lock state is tracked lexically along the statement walk so
// each edge knows whether the caller holds a sync lock at the site.
func (g *callGraph) addEdges(node *cgNode, cfg *config) {
	lw := &lockWalker{pi: node.pi}
	lw.walkBody(node.body, func(call *ast.CallExpr, locked bool) {
		g.edgesForCall(node, call, locked, cfg)
	}, func(gs *ast.GoStmt, locked bool) {
		// go f() / go func(){...}(): the spawned body is a goroutine; in
		// the worker packages that makes it a worker root.
		for _, t := range g.funcValue(node.pi, gs.Call.Fun) {
			g.addEdge(node, t, gs.Call, locked)
			if t.lit != nil {
				t.goLit = true
			}
			if cfg.workers[node.pi.path] {
				t.workerRoot = true
			}
		}
	})
}

// edgesForCall resolves one call expression to its callees.
func (g *callGraph) edgesForCall(node *cgNode, call *ast.CallExpr, locked bool, cfg *config) {
	pi := node.pi
	// Direct callees (including interface dispatch and func-var calls).
	for _, t := range g.funcValue(pi, call.Fun) {
		g.addEdge(node, t, call, locked)
	}
	// A function value passed as an argument is callable from here on:
	// record caller→value edges, and mark sched executor arguments as
	// worker roots (the executor invokes them once per task from its
	// worker goroutines).
	workerSink := isSchedExecutor(pi, call, g.schedPath)
	for _, arg := range call.Args {
		for _, t := range g.funcValue(pi, arg) {
			g.addEdge(node, t, call, locked)
			if workerSink {
				t.workerRoot = true
			}
		}
	}
}

// isSchedExecutor reports whether the call targets one of the sched
// executors (sched.Run, sched.Execute*), whose function arguments are
// per-task worker bodies.
func isSchedExecutor(pi *pkgInfo, call *ast.CallExpr, schedPath string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Run" && !strings.HasPrefix(sel.Sel.Name, "Execute")) {
		return false
	}
	obj := pi.info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == schedPath
}

// addEdge appends one edge, deduplicating exact repeats.
func (g *callGraph) addEdge(caller, callee *cgNode, site *ast.CallExpr, locked bool) {
	for _, e := range caller.calls {
		if e.callee == callee && e.site == site {
			if !locked {
				e.locked = false
			}
			return
		}
	}
	caller.calls = append(caller.calls, &cgEdge{caller: caller, callee: callee, site: site, locked: locked})
}

// workerReachable returns every node reachable from a worker root,
// including the roots themselves.
func (g *callGraph) workerReachable() map[*cgNode]bool {
	seen := map[*cgNode]bool{}
	var stack []*cgNode
	for _, n := range g.nodes {
		if n.workerRoot && !seen[n] {
			seen[n] = true
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.calls {
			if !seen[e.callee] {
				seen[e.callee] = true
				stack = append(stack, e.callee)
			}
		}
	}
	return seen
}
