package main

// The shared-capture rule: the intra-procedural lock-discipline check
// only sees writes that appear LITERALLY inside a worker goroutine's
// body. A worker closure that hands `&shared` to a helper moves the
// racy write one call away, out of that rule's sight:
//
//	total := 0
//	go func() { bump(&total) }()      // worker closure
//	func bump(p *int) { *p++ }        // unlocked shared write
//
// This rule follows the pointer interprocedurally. Starting from the
// worker roots of the call graph (closures handed to sched.Run/Execute*,
// goroutine bodies in the worker packages), every call argument of the
// form &v — where v is declared outside the worker body, i.e. captured
// by reference or package-level — taints the callee's parameter. The
// taint propagates through further unlocked calls passing the pointer
// along. A write through a tainted parameter (*p = …, p.f = …,
// p[i] = …) without a sync lock held at the write is a finding; if the
// CALLER holds a lock at the call site the pointer arrives protected
// and the chain stops there, which keeps the lock-at-the-top idiom
// (mu.Lock(); helper(&state); mu.Unlock()) clean. Writes to mutable
// package-level variables from any worker-reachable function get the
// same treatment.
//
// Out of scope, deliberately: captured slices and maps (the numeric
// workers write disjoint elements of shared arrays by construction —
// the branch property — so flagging them would drown the signal), and
// receivers (task methods write owner-partitioned state).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// sharedCapture runs the rule over the call graph.
func (a *analysis) sharedCapture(g *callGraph) {
	// tainted[node] is the set of parameter objects of node that may
	// point to a worker-captured variable reached through an unlocked
	// call chain.
	tainted := map[*cgNode]map[types.Object]string{}

	type item struct {
		node *cgNode
	}
	var queue []item
	addTaint := func(n *cgNode, param types.Object, origin string) {
		if param == nil {
			return
		}
		m := tainted[n]
		if m == nil {
			m = map[types.Object]string{}
			tainted[n] = m
		}
		if _, ok := m[param]; ok {
			return
		}
		m[param] = origin
		queue = append(queue, item{n})
	}

	// Seed: unlocked calls inside worker roots passing &captured.
	for _, root := range g.nodes {
		if !root.workerRoot {
			continue
		}
		a.seedCalls(g, root, nil, addTaint)
	}

	// Propagate: unlocked calls inside tainted functions passing the
	// tainted pointer (or &captured of their own) along.
	for len(queue) > 0 {
		n := queue[0].node
		queue = queue[1:]
		a.seedCalls(g, n, tainted[n], addTaint)
	}

	// Report: writes through tainted parameters without a lock, and
	// unlocked writes to package-level variables in worker-reachable
	// code outside the roots themselves (the intra-procedural rule owns
	// the root bodies).
	reach := g.workerReachable()
	for _, n := range g.nodes {
		params := tainted[n]
		inReach := reach[n] && !n.workerRoot
		if len(params) == 0 && !inReach {
			continue
		}
		lw := &lockWalker{pi: n.pi}
		lw.walkWrites(n.body, func(target ast.Expr, locked bool) {
			if locked {
				return
			}
			obj := writeBase(n.pi, target)
			if obj == nil {
				return
			}
			if origin, ok := params[obj]; ok {
				a.report(target.Pos(), "shared-capture",
					"write through %q, a pointer to a variable captured by a worker closure (%s); hold a lock here or at the call site", obj.Name(), origin)
				return
			}
			if inReach && isMutableGlobal(obj) {
				a.report(target.Pos(), "shared-capture",
					"write to package-level %q from worker-reachable code without holding a lock", obj.Name())
			}
		})
	}
}

// seedCalls scans one function body for unlocked calls that hand a
// shared pointer to a callee: &v with v declared outside the enclosing
// worker body (seeding), or a parameter already known to be tainted
// (propagation).
func (a *analysis) seedCalls(g *callGraph, n *cgNode, taintedParams map[types.Object]string, addTaint func(*cgNode, types.Object, string)) {
	lw := &lockWalker{pi: n.pi}
	lw.walkBody(n.body, func(call *ast.CallExpr, locked bool) {
		if locked {
			return // the caller's lock protects the callee's writes
		}
		callees := calleesAt(n, call)
		if len(callees) == 0 {
			return
		}
		for argIdx, arg := range call.Args {
			origin := ""
			switch v := ast.Unparen(arg).(type) {
			case *ast.UnaryExpr:
				if v.Op != token.AND {
					continue
				}
				obj := writeBase(n.pi, v.X)
				if obj == nil || !a.sharedInNode(n, obj) {
					continue
				}
				origin = "&" + obj.Name() + " from " + n.name()
			case *ast.Ident:
				if taintedParams == nil {
					continue
				}
				obj := n.pi.info.Uses[v]
				if obj == nil {
					continue
				}
				o, ok := taintedParams[obj]
				if !ok {
					continue
				}
				origin = o
			default:
				continue
			}
			for _, callee := range callees {
				addTaint(callee, paramAt(callee, argIdx), origin)
			}
		}
	}, nil)
}

// calleesAt returns the call-graph targets recorded for this site.
func calleesAt(n *cgNode, call *ast.CallExpr) []*cgNode {
	var out []*cgNode
	for _, e := range n.calls {
		if e.site == call {
			out = append(out, e.callee)
		}
	}
	return out
}

// paramAt resolves the object of a node's i-th parameter (clamping
// into a variadic tail).
func paramAt(n *cgNode, i int) types.Object {
	var ft *ast.FuncType
	if n.decl != nil {
		ft = n.decl.Type
	} else if n.lit != nil {
		ft = n.lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	idx := 0
	var lastName *ast.Ident
	for _, field := range ft.Params.List {
		names := field.Names
		if len(names) == 0 {
			// Unnamed parameter still occupies a slot.
			if idx == i {
				return nil
			}
			idx++
			continue
		}
		for _, name := range names {
			lastName = name
			if idx == i {
				return n.pi.info.Defs[name]
			}
			idx++
		}
	}
	// Variadic: later arguments map to the last parameter.
	if ft.Params.NumFields() > 0 {
		last := ft.Params.List[len(ft.Params.List)-1]
		if _, variadic := last.Type.(*ast.Ellipsis); variadic && lastName != nil && i >= idx-1 {
			return n.pi.info.Defs[lastName]
		}
	}
	return nil
}

// sharedInNode reports whether obj is a plain variable declared
// outside node's body — captured by the closure or package-level —
// excluding sync primitives, which manage their own safety.
func (a *analysis) sharedInNode(n *cgNode, obj types.Object) bool {
	vr, ok := obj.(*types.Var)
	if !ok || vr.IsField() {
		return false
	}
	if obj.Pos() >= n.pos() && obj.Pos() < n.end() {
		return false // local to the body: per-invocation, not shared
	}
	if isSyncType(vr.Type()) {
		return false
	}
	return true
}

// isMutableGlobal reports a writable package-level variable that is
// not a sync/atomic primitive.
func isMutableGlobal(obj types.Object) bool {
	vr, ok := obj.(*types.Var)
	if !ok || vr.IsField() {
		return false
	}
	if vr.Parent() == nil || vr.Pkg() == nil || vr.Parent() != vr.Pkg().Scope() {
		return false
	}
	return !isSyncType(vr.Type())
}

// isSyncType reports sync.* and sync/atomic types (addressed through
// pointers too).
func isSyncType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || strings.HasPrefix(pkg.Path(), "sync/")
}

// writeBase drills a write target to its base identifier's object.
func writeBase(pi *pkgInfo, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.Ident:
			if v.Name == "_" {
				return nil
			}
			if obj := pi.info.Uses[v]; obj != nil {
				return obj
			}
			return pi.info.Defs[v]
		default:
			return nil
		}
	}
}
