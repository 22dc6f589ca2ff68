package main

// The fp-reassoc rule: floating-point accumulation in the numeric
// packages must run in the pinned serial order — ascending k — because
// the bitwise-determinism contract is exactly "the parallel execution
// performs the same additions in the same order as the serial sweep".
// Four accumulation shapes break that order statically:
//
//   - descending: a compound float accumulation (`s += …`, `s -= …`,
//     `s = s + …`) into a variable declared OUTSIDE a loop that steps
//     its variable downward. The upper-triangular solve kernels are
//     pinned descending by design and are whitelisted per file.
//   - worker-order: a compound float accumulation into a variable
//     declared outside a goroutine body or a sched.Run/Execute* closure.
//     Even under a lock the additions happen in task-completion order,
//     which varies with the worker count — a lock makes it race-free,
//     not deterministic.
//   - permuted gather: a scalar accumulation whose summand reads
//     through an index indirection (x[idx[…]]). The gather order then
//     depends on the contents of the index vector, which no loop
//     direction pins.
//   - map-order: a compound float accumulation inside a map-range
//     body; iteration order is randomized per run.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// fpReassoc runs the rule over the fp-scoped packages.
func (a *analysis) fpReassoc(g *callGraph) {
	for _, n := range g.nodes {
		if !a.cfg.fpScope[n.pi.path] {
			continue
		}
		file := a.fset.Position(n.pos()).Filename
		if a.fpExempt[file] {
			continue // relaxed-mode kernel file: whole fp scan waived
		}
		whitelisted := a.cfg.fpWhitelist[filepath.Base(file)]
		s := &fpScan{a: a, n: n, pi: n.pi, whitelisted: whitelisted}
		s.walk(n.body, nil)
	}
	// Worker-order accumulation: the bodies of worker closures (their
	// own nodes) accumulate into captured variables.
	for _, n := range g.nodes {
		if !a.cfg.fpScope[n.pi.path] || !n.workerRoot || n.lit == nil || n.goLit {
			continue // go-spawned literals were checked during the walk
		}
		if a.fpExempt[a.fset.Position(n.pos()).Filename] {
			continue
		}
		s := &fpScan{a: a, n: n, pi: n.pi}
		s.workerAccum(n.lit)
	}
}

type fpScan struct {
	a           *analysis
	n           *cgNode
	pi          *pkgInfo
	whitelisted bool
}

// loopCtx describes one enclosing loop during the walk.
type loopCtx struct {
	node       ast.Node
	descending bool
	mapRange   bool
}

// walk traverses statements tracking the loop-context stack. Nested
// function literals are skipped for the loop checks (they are their own
// nodes) but goroutine literals get the worker-order check here, where
// the capture environment is visible.
func (s *fpScan) walk(node ast.Node, loops []*loopCtx) {
	ast.Inspect(node, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.FuncLit:
			if v == s.n.lit || nd == node {
				return true
			}
			return false
		case *ast.GoStmt:
			if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
				s.workerAccum(fl)
			}
			return true
		case *ast.ForStmt:
			ctx := &loopCtx{node: v, descending: descendingFor(v)}
			s.walkLoopBody(v.Body, append(loops, ctx))
			if v.Init != nil {
				s.walk(v.Init, loops)
			}
			return false
		case *ast.RangeStmt:
			ctx := &loopCtx{node: v}
			if tv, ok := s.pi.info.Types[v.X]; ok {
				_, ctx.mapRange = tv.Type.Underlying().(*types.Map)
			}
			s.walkLoopBody(v.Body, append(loops, ctx))
			return false
		case *ast.AssignStmt:
			s.checkAccum(v, loops)
			return true
		}
		return true
	})
}

func (s *fpScan) walkLoopBody(body *ast.BlockStmt, loops []*loopCtx) {
	for _, st := range body.List {
		s.walk(st, loops)
	}
}

// workerAccum flags float accumulation into captured variables inside
// a worker body: the additions land in task-completion order.
func (s *fpScan) workerAccum(fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(nd ast.Node) bool {
		if inner, ok := nd.(*ast.FuncLit); ok && inner != fl {
			return false
		}
		as, ok := nd.(*ast.AssignStmt)
		if !ok {
			return true
		}
		target, ok := s.floatAccumTarget(as)
		if !ok {
			return true
		}
		obj := s.lvalueObj(target)
		if obj == nil {
			return true
		}
		if obj.Pos() < fl.Pos() || obj.Pos() >= fl.End() {
			s.a.report(as.Pos(), "fp-reassoc",
				"float accumulation into captured %q inside a worker body sums in task-completion order; accumulate locally and combine in the pinned order", obj.Name())
		}
		return true
	})
}

// checkAccum applies the descending / permuted-gather / map-order
// checks to one assignment.
func (s *fpScan) checkAccum(as *ast.AssignStmt, loops []*loopCtx) {
	target, ok := s.floatAccumTarget(as)
	if !ok {
		return
	}
	obj := s.lvalueObj(target)

	// Permuted gather: the summand reads x[idx[...]] into a scalar.
	if _, isIdent := ast.Unparen(target).(*ast.Ident); isIdent && len(as.Rhs) == 1 {
		if s.hasIndirectGather(as.Rhs[0]) {
			s.a.report(as.Pos(), "fp-reassoc",
				"float accumulation gathers through an index indirection; the summation order follows the index vector, not the pinned ascending sweep")
			return
		}
	}

	if obj == nil {
		return
	}
	for i := len(loops) - 1; i >= 0; i-- {
		ctx := loops[i]
		declaredOutside := obj.Pos() < ctx.node.Pos() || obj.Pos() >= ctx.node.End()
		if !declaredOutside {
			// The accumulator resets inside this loop; outer loop
			// directions cannot reassociate its partial sums.
			return
		}
		if ctx.mapRange {
			s.a.report(as.Pos(), "fp-reassoc",
				"float accumulation inside a map-range body sums in randomized map order")
			return
		}
		if ctx.descending && !s.whitelisted {
			s.a.report(as.Pos(), "fp-reassoc",
				"float accumulation in a descending loop reassociates against the pinned ascending-k order")
			return
		}
	}
}

// floatAccumTarget reports the accumulation target of `t += e`,
// `t -= e` or `t = t ± e` when t has floating-point type.
func (s *fpScan) floatAccumTarget(as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	lhs := as.Lhs[0]
	tv, ok := s.pi.info.Types[lhs]
	if !ok || !isFloat(tv.Type) {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		// t = t + e / t = e + t / t = t - e
		be, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (be.Op != token.ADD && be.Op != token.SUB) {
			return nil, false
		}
		if sameLvalue(lhs, be.X) || (be.Op == token.ADD && sameLvalue(lhs, be.Y)) {
			return lhs, true
		}
	}
	return nil, false
}

// sameLvalue is a syntactic comparison good enough for `s = s + x`.
func sameLvalue(a, b ast.Expr) bool {
	ai, aok := ast.Unparen(a).(*ast.Ident)
	bi, bok := ast.Unparen(b).(*ast.Ident)
	return aok && bok && ai.Name == bi.Name
}

// hasIndirectGather reports a read of the shape x[idx[...]] where idx
// is an integer slice: an index indirection in the summand.
func (s *fpScan) hasIndirectGather(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(nd ast.Node) bool {
		if found {
			return false
		}
		ix, ok := nd.(*ast.IndexExpr)
		if !ok {
			return true
		}
		inner, ok := ast.Unparen(ix.Index).(*ast.IndexExpr)
		if !ok {
			return true
		}
		if tv, ok := s.pi.info.Types[inner.X]; ok {
			if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
				if b, ok := sl.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// lvalueObj drills to the base identifier's object.
func (s *fpScan) lvalueObj(e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.Ident:
			if obj := s.pi.info.Uses[v]; obj != nil {
				return obj
			}
			return s.pi.info.Defs[v]
		default:
			return nil
		}
	}
}

// descendingFor reports whether the for loop steps its variable down
// (i--, i -= 1).
func descendingFor(v *ast.ForStmt) bool {
	switch post := v.Post.(type) {
	case *ast.IncDecStmt:
		return post.Tok == token.DEC
	case *ast.AssignStmt:
		return post.Tok == token.SUB_ASSIGN
	}
	return false
}
