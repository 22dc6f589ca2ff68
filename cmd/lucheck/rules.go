package main

// The project-specific rules: one syntactic pass over type-checked
// files. Each rule is scoped by import path (see config) and reports
// findings that can be suppressed with a trailing or preceding comment
// of the form
//
//	//lucheck:allow <rule>[,<rule>...] — justification
//
// Every rule here guards something whose violation passes the whole
// test suite on an idle host; invariants a parity, determinism or race
// test pins (accumulation order, shared writes in worker goroutines)
// are left to those tests — DESIGN §12 has the record.
//
// The package comment in main.go lists the rules; each rule's function
// below documents its exact shape.

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// finding is one rule violation.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.pos.Column, f.rule, f.msg)
}

// sortFindings puts findings in their one reporting order: position,
// then rule and message, so two rules firing at one position cannot
// swap between runs. Text and SARIF output both render this order.
func sortFindings(fs []finding) {
	slices.SortFunc(fs, func(x, y finding) int {
		return cmp.Or(
			cmp.Compare(x.pos.Filename, y.pos.Filename),
			cmp.Compare(x.pos.Line, y.pos.Line),
			cmp.Compare(x.pos.Column, y.pos.Column),
			cmp.Compare(x.rule, y.rule),
			cmp.Compare(x.msg, y.msg),
		)
	})
}

// config scopes the rules to package sets.
type config struct {
	modPath string
	// sparsePath is the package whose storage fields are protected.
	sparsePath string
	// constructors may mutate ColPtr/RowInd/Val (they build the
	// structures in the first place).
	constructors map[string]bool
	// numeric packages get the float-equality rule.
	numeric map[string]bool
	// workers packages get the goroutine-body rules: worker-timing,
	// worker-exit, spin-loop and the goroutine variant of hot-alloc.
	workers map[string]bool
	// hotpath packages get the whole-file hot-alloc rule (no make or
	// append anywhere in non-test code); workers packages get the
	// goroutine-body variant unless they are also hotpath (whole-file
	// subsumes it).
	hotpath map[string]bool
	// schedClients packages get the hot-alloc rule inside function
	// literals passed to the sched executors (their per-task worker
	// bodies), unless they are also hotpath.
	schedClients map[string]bool
	// service packages get the request-ctx rule: no
	// context.Background/TODO, and `go` statements must thread a
	// cancellation signal.
	service map[string]bool
	// contract packages carry the bitwise-determinism contract and get
	// the nondet-source ban.
	contract map[string]bool
}

// defaultConfig is the rule scoping for this repository.
func defaultConfig(modPath string) *config {
	p := func(s string) string { return modPath + "/" + s }
	return &config{
		modPath:    modPath,
		sparsePath: p("internal/sparse"),
		constructors: map[string]bool{
			p("internal/sparse"):   true,
			p("internal/symbolic"): true,
		},
		numeric: map[string]bool{
			p("internal/blas"): true,
			p("internal/core"): true,
			p("internal/gplu"): true,
			// The command-line tools compute residuals; exact float
			// comparison is as wrong there as in the kernels.
			p("cmd/splu"):       true,
			p("cmd/paperbench"): true,
			p("cmd/matinfo"):    true,
		},
		workers: map[string]bool{
			p("internal/sched"): true,
			// The parallel-analyze subtree pools: goroutine bodies in
			// the symbolic engine and the analysis-overlap stages get
			// the same hygiene contract as the numeric executors.
			p("internal/symbolic"): true,
			p("internal/core"):     true,
		},
		hotpath: map[string]bool{
			p("internal/blas"): true,
		},
		schedClients: map[string]bool{
			p("internal/core"): true,
		},
		service: map[string]bool{
			p("internal/server"): true,
		},
		contract: map[string]bool{
			p("internal/core"):      true,
			p("internal/sched"):     true,
			p("internal/taskgraph"): true,
			p("internal/symbolic"):  true,
		},
	}
}

// analysis is the module-wide state: the suppression index, the
// suppression inventory (for -audit) and the findings of every rule.
type analysis struct {
	fset     *token.FileSet
	cfg      *config
	allowed  map[string]map[int]map[string]bool // file -> line -> rules
	supps    []suppression
	findings []finding
}

// suppression is one //lucheck:allow comment.
type suppression struct {
	pos           token.Position
	tokPos        token.Pos
	rules         []string
	justification string
}

// analyzeModule runs every rule over every package, then the
// suppression-justification check, and returns the findings in
// reporting order together with the suppression inventory.
func analyzeModule(fset *token.FileSet, pkgs []*pkgInfo, cfg *config) *analysis {
	a := &analysis{fset: fset, cfg: cfg, allowed: map[string]map[int]map[string]bool{}}
	for _, pi := range pkgs {
		for _, f := range pi.files {
			a.indexSuppressions(f)
		}
	}
	for _, pi := range pkgs {
		a.pkgRules(pi)
	}
	a.checkJustifications()
	sortFindings(a.findings)
	return a
}

// pkgRules runs the rules one package is scoped into.
func (a *analysis) pkgRules(pi *pkgInfo) {
	p := &pass{pi: pi, cfg: a.cfg, a: a}
	for _, f := range pi.files {
		if !a.cfg.constructors[pi.path] {
			p.patternMutation(f)
		}
		if strings.Contains(pi.path, "/internal/") {
			p.nakedPanic(f)
		}
		if a.cfg.numeric[pi.path] {
			p.floatEquality(f)
		}
		if a.cfg.contract[pi.path] {
			p.nondetSource(f)
		}
		if a.cfg.workers[pi.path] {
			p.workerTiming(f)
			p.workerExit(f)
			p.spinLoop(f)
		}
		if a.cfg.service[pi.path] {
			p.requestCtx(f)
		}
		// Whole-file hot-alloc takes precedence over the narrower scans
		// so a package in several sets is not double-reported.
		if a.cfg.hotpath[pi.path] {
			p.hotAllocFile(f)
		} else {
			if a.cfg.workers[pi.path] {
				p.hotAllocGoroutines(f)
			}
			if a.cfg.schedClients[pi.path] {
				p.hotAllocSchedClosures(f)
			}
		}
	}
}

// pass carries the per-package analysis state.
type pass struct {
	pi  *pkgInfo
	cfg *config
	a   *analysis
}

// indexSuppressions records the //lucheck:allow comments of a file:
// both the line index consulted by report and the inventory behind
// -audit. The accepted form is
//
//	//lucheck:allow <rule>[,<rule>...] — <justification>
//
// (an ASCII "--" separator also works). The justification is
// mandatory; a bare allow still suppresses its target rules but is
// itself reported by the allow-justification rule and fails -audit.
func (a *analysis) indexSuppressions(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			// Directive convention: no space between // and the verb, so
			// prose that merely mentions the syntax is not a directive.
			after, ok := strings.CutPrefix(c.Text, "//lucheck:allow")
			if !ok {
				continue
			}
			rest := strings.TrimSpace(after)
			word := rest
			if sp := strings.IndexAny(rest, " \t"); sp >= 0 {
				word = rest[:sp]
			}
			just := parseJustification(strings.TrimSpace(rest[len(word):]))
			pos := a.fset.Position(c.Pos())
			byLine := a.allowed[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]bool{}
				a.allowed[pos.Filename] = byLine
			}
			rules := byLine[pos.Line]
			if rules == nil {
				rules = map[string]bool{}
				byLine[pos.Line] = rules
			}
			var ruleList []string
			for _, r := range strings.Split(word, ",") {
				if r != "" {
					rules[r] = true
					ruleList = append(ruleList, r)
				}
			}
			a.supps = append(a.supps, suppression{
				pos: pos, tokPos: c.Pos(), rules: ruleList, justification: just,
			})
		}
	}
}

// parseJustification extracts the justification text after the em-dash
// (or "--") separator; empty when absent.
func parseJustification(rest string) string {
	for _, sep := range []string{"—", "–", "--"} {
		if cut, ok := strings.CutPrefix(rest, sep); ok {
			return strings.TrimSpace(cut)
		}
	}
	return ""
}

// checkJustifications files an allow-justification finding for every
// bare suppression. The finding is itself unsuppressable: an allow
// without a reason is exactly what the audit trail must not contain.
func (a *analysis) checkJustifications() {
	for _, s := range a.supps {
		if len(s.rules) == 0 {
			a.report(s.tokPos, "allow-justification",
				"lucheck:allow names no rule; spell it //lucheck:allow <rule> — <why>")
			continue
		}
		if s.justification == "" {
			a.report(s.tokPos, "allow-justification",
				"suppression of %s has no justification; spell it //lucheck:allow %s — <why>",
				strings.Join(s.rules, ","), strings.Join(s.rules, ","))
		}
	}
}

// report files a finding unless a suppression covers its line (either
// trailing on the same line or on the line directly above). The
// allow-justification rule cannot be suppressed.
func (a *analysis) report(pos token.Pos, rule, format string, args ...any) {
	position := a.fset.Position(pos)
	if rule != "allow-justification" {
		if byLine := a.allowed[position.Filename]; byLine != nil {
			for _, line := range []int{position.Line, position.Line - 1} {
				if rules := byLine[line]; rules != nil && (rules[rule] || rules["all"]) {
					return
				}
			}
		}
	}
	a.findings = append(a.findings, finding{pos: position, rule: rule, msg: fmt.Sprintf(format, args...)})
}

// report delegates to the shared analysis.
func (p *pass) report(pos token.Pos, rule, format string, args ...any) {
	p.a.report(pos, rule, format, args...)
}

// ---------------------------------------------------------------- rules

// patternMutation flags writes to the protected sparse storage fields.
func (p *pass) patternMutation(f *ast.File) {
	check := func(lhs ast.Expr) {
		if field, recvType, ok := p.protectedField(lhs); ok {
			p.report(lhs.Pos(), "pattern-mutation",
				"mutation of %s.%s outside a constructor package invalidates the static symbolic factorization", recvType, field)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(st.X)
		}
		return true
	})
}

// protectedField reports whether e writes (possibly through an index
// expression) a ColPtr/RowInd/Val field of a type defined in the sparse
// package, returning the field and receiver type names.
func (p *pass) protectedField(e ast.Expr) (field, recvType string, ok bool) {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			sel, isSel := e.(*ast.SelectorExpr)
			if !isSel {
				return "", "", false
			}
			s := p.pi.info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return "", "", false
			}
			obj := s.Obj()
			name := obj.Name()
			if name != "ColPtr" && name != "RowInd" {
				return "", "", false
			}
			if obj.Pkg() == nil || obj.Pkg().Path() != p.cfg.sparsePath {
				return "", "", false
			}
			recv := s.Recv()
			if ptr, isPtr := recv.(*types.Pointer); isPtr {
				recv = ptr.Elem()
			}
			tn := recv.String()
			if named, isNamed := recv.(*types.Named); isNamed {
				tn = named.Obj().Name()
			}
			return name, tn, true
		}
	}
}

// nakedPanic flags panic calls in library packages whose argument does
// not carry a "<pkg>: "-prefixed message.
func (p *pass) nakedPanic(f *ast.File) {
	prefix := p.pi.name + ": "
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" || len(call.Args) != 1 {
			return true
		}
		if obj := p.pi.info.Uses[id]; obj == nil || obj.Parent() != types.Universe {
			return true // shadowed, not the builtin
		}
		if !p.prefixedMessage(call.Args[0], prefix) {
			p.report(call.Pos(), "naked-panic",
				"library panic without a %q prefixed message; return an error or name the subsystem", p.pi.name+":")
		}
		return true
	})
}

// prefixedMessage reports whether arg is a string literal starting with
// prefix, or a fmt.Sprintf/fmt.Errorf call whose format does.
func (p *pass) prefixedMessage(arg ast.Expr, prefix string) bool {
	switch a := arg.(type) {
	case *ast.BasicLit:
		if a.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(a.Value)
		return err == nil && strings.HasPrefix(s, prefix)
	case *ast.CallExpr:
		sel, ok := a.Fun.(*ast.SelectorExpr)
		if !ok || len(a.Args) == 0 {
			return false
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "fmt" {
			return false
		}
		if sel.Sel.Name != "Sprintf" && sel.Sel.Name != "Errorf" && sel.Sel.Name != "Sprint" {
			return false
		}
		return p.prefixedMessage(a.Args[0], prefix)
	}
	return false
}

// floatEquality flags ==/!= between two non-constant float expressions.
func (p *pass) floatEquality(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		tx, okx := p.pi.info.Types[be.X]
		ty, oky := p.pi.info.Types[be.Y]
		if !okx || !oky {
			return true
		}
		if !isFloat(tx.Type) || !isFloat(ty.Type) {
			return true
		}
		if tx.Value != nil || ty.Value != nil {
			return true // comparison against a constant is deliberate
		}
		p.report(be.OpPos, "float-equality",
			"%s between two non-constant floats; compare against a tolerance or a constant", be.Op)
		return true
	})
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// nondetSource bans the sources of nondeterministic order from the
// determinism-contract packages: a range over a map, a select with two
// or more communication cases (the runtime picks among ready cases at
// random), an import of math/rand, and a read of the wall clock. The
// ban is on the source, not on where its value flows: the contract
// packages build schedules, level sets and task queues, and a package
// that cannot produce an unordered value cannot put one into them.
// Indexing a map and a select with one communication case (plus an
// optional default) stay legal — neither has an order to leak.
func (p *pass) nondetSource(f *ast.File) {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
			p.report(imp.Pos(), "nondet-source",
				"import of %s in a determinism-contract package; schedules must not depend on random draws", path)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if t := p.pi.info.TypeOf(st.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.report(st.Pos(), "nondet-source",
						"range over a map in a determinism-contract package; iterate sorted keys or an index-ordered slice")
				}
			}
		case *ast.SelectStmt:
			comm := 0
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					comm++
				}
			}
			if comm >= 2 {
				p.report(st.Pos(), "nondet-source",
					"select with %d communication cases in a determinism-contract package; the runtime picks among ready cases at random", comm)
			}
		case *ast.CallExpr:
			if name := p.clockRead(st); name != "" {
				p.report(st.Pos(), "nondet-source",
					"time.%s in a determinism-contract package; the wall clock must not reach a schedule (timing belongs to internal/trace)", name)
			}
		}
		return true
	})
}

// workerTiming flags direct time.Now / time.Since calls inside
// goroutines of the worker packages. All timing of the numeric phase is
// centralized in the internal/trace recorder (whose clock reads are the
// one sanctioned wall-clock access), so a stray time.Now in a worker
// loop is either duplicated instrumentation or a hidden per-task cost
// that the nil-recorder overhead guarantee does not account for.
func (p *pass) workerTiming(f *ast.File) {
	goroutineBodies(f, func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name := p.clockRead(call); name != "" {
					p.report(call.Pos(), "worker-timing",
						"direct time.%s in a worker goroutine; timing belongs to the internal/trace recorder", name)
				}
			}
			return true
		})
	})
}

// goroutineBodies calls fn with the body of every function literal
// launched by a `go` statement in f — the worker bodies the
// goroutine-scoped rules look into.
func goroutineBodies(f *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
				fn(fl.Body)
			}
		}
		return true
	})
}

// clockRead returns "Now" or "Since" when call is time.Now or
// time.Since, and "" otherwise.
func (p *pass) clockRead(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
		return ""
	}
	obj := p.pi.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return ""
	}
	return sel.Sel.Name
}

// workerExit flags process-terminating calls (os.Exit, log.Fatal*)
// inside goroutines of the worker packages. A worker closure that kills
// the process on failure bypasses the scheduler's error contract —
// failures must surface as a TaskError through the cancellation path so
// the caller learns which task failed and the remaining workers stop
// cleanly instead of vanishing mid-factorization.
func (p *pass) workerExit(f *ast.File) {
	goroutineBodies(f, func(body *ast.BlockStmt) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.pi.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch {
			case obj.Pkg().Path() == "os" && sel.Sel.Name == "Exit":
			case obj.Pkg().Path() == "log" && strings.HasPrefix(sel.Sel.Name, "Fatal"):
			default:
				return true
			}
			p.report(call.Pos(), "worker-exit",
				"%s.%s in a worker goroutine kills the process; fail through the scheduler's error contract instead", obj.Pkg().Path(), sel.Sel.Name)
			return true
		})
	})
}

// spinLoop flags unbounded busy-wait loops in the worker packages: a
// `for` loop with no init and no post clause (so nothing bounds its
// trip count) that polls for claimable state — an atomic .Load in its
// condition or body, or a call to a claim primitive (a name containing
// pop, steal or claim) — must also block or back off on each round.
// Bounded sweep loops (with an init/post clause) are fine: they
// terminate on their own, and the engine's steal sweeps are exactly
// that shape with a yield between rounds.
func (p *pass) spinLoop(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Init != nil || loop.Post != nil {
			return true
		}
		if !spinPolls(loop) || spinBacksOff(loop.Body) || spinIsCASRetry(loop.Body) {
			return true
		}
		p.report(loop.Pos(), "spin-loop",
			"unbounded work-polling loop without backoff or parking; yield (runtime.Gosched), sleep, or park on a condition variable between polls")
		return true
	})
}

// spinCallName extracts the called name of a call expression ("" when
// the callee is not an identifier or selector).
func spinCallName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// spinPolls reports whether the loop is a work-polling spin candidate:
// either it is condition-less and its body polls claimable state (an
// atomic-style .Load, or a claim-primitive call), or its condition
// itself polls. A loop whose condition is an ordinary bound over
// variables the body advances (a simulator's `for scheduled < nt`) is
// not a spin even if its body happens to call a claim primitive — the
// condition, not the poll, decides termination.
func spinPolls(loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := spinCallName(call)
			lower := strings.ToLower(name)
			if name == "Load" || strings.Contains(lower, "pop") ||
				strings.Contains(lower, "steal") || strings.Contains(lower, "claim") {
				found = true
				return false
			}
			return true
		})
	}
	if loop.Cond == nil {
		check(loop.Body)
	} else {
		check(loop.Cond)
	}
	return found
}

// spinIsCASRetry reports whether the loop is a lock-free compare-and-
// swap retry: its body calls CompareAndSwap* and contains a return or
// break, so each round either publishes and exits or re-reads a value
// another goroutine just advanced. Such loops are bounded by the
// lock-free progress guarantee (a failed CAS means someone else
// succeeded), not by polling cadence, and need no backoff.
func spinIsCASRetry(body *ast.BlockStmt) bool {
	cas, exits := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if strings.HasPrefix(spinCallName(n), "CompareAndSwap") {
				cas = true
			}
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				exits = true
			}
		}
		return true
	})
	return cas && exits
}

// spinBacksOff reports whether the loop body blocks or yields between
// polls: a select, a channel operation, or a call named Wait, Sleep or
// Gosched, or whose name mentions park, backoff or yield.
func spinBacksOff(body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			ok = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ok = true
			}
		case *ast.CallExpr:
			name := spinCallName(x)
			lower := strings.ToLower(name)
			if name == "Wait" || name == "Sleep" || name == "Gosched" ||
				strings.Contains(lower, "park") || strings.Contains(lower, "backoff") ||
				strings.Contains(lower, "yield") {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// hotAllocFile flags every builtin make/append call in a file of a
// hot-path package: the level-3 kernels run inside the measured numeric
// phase, so any allocation they perform is a per-task heap object that
// the zero-allocation proof would catch much later and less precisely.
// Kernel scratch comes from the freelist of fixed-size arrays (whose
// one sanctioned allocation is `new` in getScratch, and whose bounded
// push is the one waived append).
func (p *pass) hotAllocFile(f *ast.File) {
	p.hotAllocIn(f, "in a hot-path package; use a pooled or caller-provided buffer")
}

// hotAllocGoroutines applies the same ban only inside goroutine bodies
// of the worker packages: code launched with `go func` is the per-task
// execution engine, while setup code around it may allocate freely
// (queues and ownership tables are built once per factorization).
func (p *pass) hotAllocGoroutines(f *ast.File) {
	goroutineBodies(f, func(body *ast.BlockStmt) {
		p.hotAllocIn(body, "in a worker goroutine runs once per task; hoist it to setup")
	})
}

// hotAllocSchedClosures applies the hot-alloc ban inside function
// literals passed directly to the sched executors (sched.Run,
// sched.Execute*): those closures are the per-task worker bodies of the
// numeric and solve hot paths — the executor calls them once per task
// from its worker goroutines — even though the `go` statement itself
// lives in internal/sched, out of the goroutine-body scan's sight.
func (p *pass) hotAllocSchedClosures(f *ast.File) {
	schedPath := p.cfg.modPath + "/internal/sched"
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSchedExecutor(p.pi, call, schedPath) {
			return true
		}
		for _, arg := range call.Args {
			if fl, ok := arg.(*ast.FuncLit); ok {
				p.hotAllocIn(fl.Body, "in a sched worker body runs once per task; use a pooled workspace or hoist it to setup")
			}
		}
		return true
	})
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

// hotAllocIn reports every call to the builtin make or append under n.
func (p *pass) hotAllocIn(n ast.Node, why string) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || (id.Name != "make" && id.Name != "append") {
			return true
		}
		if obj := p.pi.info.Uses[id]; obj == nil || obj.Parent() != types.Universe {
			return true // shadowed, not the builtin
		}
		p.report(call.Pos(), "hot-alloc", "%s %s", id.Name, why)
		return true
	})
}

// requestCtx enforces context hygiene in the request-serving packages:
// context.Background()/context.TODO() are forbidden (they discard the
// request's deadline and disconnect signal exactly where those must
// reach the numeric kernels), and every `go` statement must visibly
// thread a cancellation signal — the spawned code or its arguments
// must reference a context.Context value, or perform a channel
// operation. Timer callbacks (time.AfterFunc) are not `go` statements
// and stay out of scope: they are one-shot and stopped by their owners.
func (p *pass) requestCtx(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.pi.info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "context" {
				return true
			}
			if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
				p.report(st.Pos(), "request-ctx",
					"context.%s() in a request-serving package discards the request's deadline and cancellation; thread the request context instead", sel.Sel.Name)
			}
		case *ast.GoStmt:
			if !p.threadsCancellation(st.Call) {
				p.report(st.Pos(), "request-ctx",
					"goroutine does not thread a cancellation signal (no context.Context or channel operation); a detached goroutine in a long-lived server outlives its request")
			}
		}
		return true
	})
}

// threadsCancellation reports whether the spawned call references a
// cancellation carrier: a value of type context.Context anywhere in the
// call (arguments included), or a channel operation / channel-typed
// value inside a function literal's body.
func (p *pass) threadsCancellation(call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
			}
		case ast.Expr:
			if t := p.pi.info.TypeOf(v); t != nil && carriesCancellation(t) {
				found = true
			}
		}
		return !found
	})
	return found
}

// carriesCancellation recognizes the cancellation-carrying types:
// context.Context (possibly behind a pointer) and channels.
func carriesCancellation(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return carriesCancellation(u.Elem())
	case *types.Chan:
		return true
	}
	return t.String() == "context.Context"
}
