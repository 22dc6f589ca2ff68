package main

// The project-specific rules. Each rule is scoped by import path (see
// config) and reports findings that can be suppressed with a trailing
// or preceding comment of the form
//
//	//lucheck:allow <rule>[,<rule>...] — justification
//
// Rules:
//
//   - pattern-mutation: the CSC/Pattern structure fields (ColPtr,
//     RowInd) are the inputs of symbolic analysis; once a matrix leaves
//     its constructor package, mutating them invalidates the static
//     symbolic factorization. Writes are allowed only inside the
//     whitelisted constructor packages. Val (the numeric values) stays
//     writable — the numeric phase scales and updates it freely.
//   - naked-panic: library packages (internal/*) must either return
//     errors or panic with a "<pkg>: ..."-prefixed message so a crash
//     names the subsystem that detected the broken invariant.
//   - float-equality: ==/!= between two non-constant floating-point
//     expressions in the numeric kernels; comparisons against constants
//     (exact-zero singularity tests, beta == 1 fast paths) are fine.
//   - lock-discipline: inside goroutines launched by the sched worker
//     pools, direct writes to variables shared with other goroutines
//     must happen while a sync.Mutex is held.
//   - worker-timing: inside goroutines of the worker packages, the wall
//     clock (time.Now / time.Since) must not be read directly; task
//     timing goes through the internal/trace recorder so traces stay
//     the single source of truth and untraced runs pay no timing cost.
//   - worker-exit: inside goroutines of the worker packages, the
//     process must not be terminated directly (os.Exit, log.Fatal*).
//     A worker that kills the process on failure bypasses the
//     scheduler's error contract: failures surface as a TaskError
//     through the cancellation path, so the caller learns which task
//     failed and the remaining workers stop cleanly.
//   - spin-loop: in the worker packages, an unbounded `for` loop that
//     polls for work (an atomic .Load, or a pop/steal/claim call) must
//     block or back off between polls — park on a condition variable,
//     runtime.Gosched, time.Sleep, a select or a channel operation. A
//     worker that spins without any of these burns a core while
//     starved, and with more workers than cores it can starve the very
//     victim whose deque it is polling.
//   - hot-alloc: the numeric hot path is allocation-free by contract
//     (the zero-allocation proof in internal/core pins it). In the
//     hot-path packages (internal/blas) no non-test code may call make
//     or append at all — kernel scratch comes from the packing-scratch
//     pool, everything else from caller-provided buffers. In the worker
//     packages the same ban applies inside goroutine bodies launched
//     with `go func`, where an allocation would run once per task. In
//     the sched-client packages (internal/core) it also applies inside
//     function literals handed to the sched executors (sched.Run,
//     sched.Execute*) — those closures are the per-task worker bodies
//     of the numeric and solve hot paths even though the `go` statement
//     lives in internal/sched.
//   - request-ctx: in the request-serving packages (internal/server),
//     context.Background() and context.TODO() are forbidden — every
//     operation must run under the request's context so deadlines and
//     client disconnects reach the numeric kernels — and every `go`
//     statement must visibly thread a cancellation signal: the spawned
//     code (or its arguments) must reference a context.Context, a
//     *sched.Canceler, or perform a channel operation. A detached
//     goroutine in a long-lived server is a leak the chaos suite's
//     goroutine accounting would only catch after the fact; the rule
//     catches it at review time.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	// workers packages get the lock-discipline rule.
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
	// the map-order taint rule. cmd/lucheck checks itself: its findings
	// and package walks must be deterministically ordered too.
	contract map[string]bool
	// fpScope packages get the fp-reassoc rule (pinned accumulation
	// order); fpWhitelist names files (by base name) whose descending
	// loops ARE the pinned direction — the upper-triangular solves.
	fpScope     map[string]bool
	fpWhitelist map[string]bool
	// sinkFields are the ordered structure fields of the map-order
	// rule: schedule and level slices, task lists, stored values.
	sinkFields map[string]bool
	// sinkPkgs are the packages whose call arguments are ordered sinks
	// (task queues, schedules, trace event streams).
	sinkPkgs map[string]bool
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
			// The command-line tools compute residuals and compare
			// benchmark times; exact float comparison is as wrong there
			// as in the kernels.
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
			// Self-check: the checker's own output and package walks
			// must be deterministic, or its findings flap in CI.
			p("cmd/lucheck"): true,
		},
		fpScope: map[string]bool{
			p("internal/blas"): true,
			p("internal/core"): true,
		},
		fpWhitelist: map[string]bool{
			// The upper-triangular kernels are pinned DESCENDING: the
			// serial backward sweep is their contract order.
			"level2.go": true,
			"level3.go": true,
		},
		sinkFields: map[string]bool{
			"Order": true, "Off": true, "Levels": true, "Tasks": true,
			"Succ": true, "Queue": true, "Prio": true, "Val": true,
		},
		sinkPkgs: map[string]bool{
			p("internal/sched"):     true,
			p("internal/taskgraph"): true,
			p("internal/trace"):     true,
		},
	}
}

// analysis is the module-wide state: the suppression index, the
// suppression inventory (for -audit) and the findings of every rule,
// intra- and interprocedural.
type analysis struct {
	fset    *token.FileSet
	cfg     *config
	allowed map[string]map[int]map[string]bool // file -> line -> rules
	// fpExempt names files whose entire fp scan is waived: a
	// //lucheck:allow fp-reassoc directive placed BEFORE the package
	// clause opts the whole file out of the pinned-accumulation-order
	// contract. That placement is reserved for relaxed-mode kernel
	// files (the FastMath variants), whose accuracy is enforced by the
	// componentwise error-bound suite instead of the parity pins; the
	// usual line-level form still covers single-site waivers.
	fpExempt map[string]bool
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

func newAnalysis(fset *token.FileSet, cfg *config) *analysis {
	return &analysis{fset: fset, cfg: cfg, allowed: map[string]map[int]map[string]bool{}, fpExempt: map[string]bool{}}
}

// analyzeAll runs every rule over every package: the per-package
// syntactic rules, then the interprocedural rules on the module-wide
// call graph, then the suppression-justification check.
func analyzeAll(fset *token.FileSet, pkgs []*pkgInfo, cfg *config) []finding {
	return analyzeModule(fset, pkgs, cfg).findings
}

// analyzeModule is analyzeAll returning the full analysis state — the
// -audit mode also wants the suppression inventory.
func analyzeModule(fset *token.FileSet, pkgs []*pkgInfo, cfg *config) *analysis {
	a := newAnalysis(fset, cfg)
	for _, pi := range pkgs {
		for _, f := range pi.files {
			a.indexSuppressions(f)
		}
	}
	for _, pi := range pkgs {
		a.pkgRules(pi)
	}
	cg := buildCallGraph(fset, pkgs, cfg)
	a.mapOrder(cg)
	a.fpReassoc(cg)
	a.sharedCapture(cg)
	a.checkJustifications()
	return a
}

// collectSuppressions indexes the whole module's //lucheck:allow
// comments without running any rules (the -audit mode).
func collectSuppressions(fset *token.FileSet, pkgs []*pkgInfo, cfg *config) []suppression {
	a := newAnalysis(fset, cfg)
	for _, pi := range pkgs {
		for _, f := range pi.files {
			a.indexSuppressions(f)
		}
	}
	return a.supps
}

// analyzePkg runs the per-package rules on one package in isolation
// (used by the tests to scope fixture packages).
func analyzePkg(fset *token.FileSet, pi *pkgInfo, cfg *config) []finding {
	a := newAnalysis(fset, cfg)
	for _, f := range pi.files {
		a.indexSuppressions(f)
	}
	a.pkgRules(pi)
	return a.findings
}

// pkgRules runs the intra-procedural rules on one package.
func (a *analysis) pkgRules(pi *pkgInfo) {
	p := &pass{fset: a.fset, pi: pi, cfg: a.cfg, a: a}
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
		if a.cfg.workers[pi.path] {
			p.lockDiscipline(f)
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
	fset *token.FileSet
	pi   *pkgInfo
	cfg  *config
	a    *analysis
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
					// A fp-reassoc allow placed before the package clause
					// waives the whole file's fp scan (relaxed-mode kernel
					// files); anywhere else it stays a line-level waiver.
					if r == "fp-reassoc" && c.Pos() < f.Package {
						a.fpExempt[pos.Filename] = true
					}
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

// lockDiscipline checks goroutine bodies: a direct write to a variable
// declared outside the goroutine must happen while a sync lock is held.
// The tracking is lexical — Lock/Unlock calls toggle a counter along
// the statement list, and blocks that end in return/break/continue are
// analyzed on a copy of the state (the early-unlock-and-return idiom).
// Mutation through calls (heap.Push, atomic.*) is out of scope: the
// former is guarded by the same lock in this codebase, the latter is
// safe by construction.
func (p *pass) lockDiscipline(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
			lc := &lockChecker{pass: p, fnPos: fl.Pos(), fnEnd: fl.End()}
			lc.block(fl.Body.List)
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
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fl, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name != "Now" && sel.Sel.Name != "Since" {
				return true
			}
			obj := p.pi.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			p.report(call.Pos(), "worker-timing",
				"direct time.%s in a worker goroutine; timing belongs to the internal/trace recorder", sel.Sel.Name)
			return true
		})
		return true
	})
}

// workerExit flags process-terminating calls (os.Exit, log.Fatal*)
// inside goroutines of the worker packages. A worker closure that kills
// the process on failure bypasses the scheduler's error contract —
// failures must surface as a TaskError through the cancellation path so
// the caller learns which task failed and the remaining workers stop
// cleanly instead of vanishing mid-factorization.
func (p *pass) workerExit(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		fl, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(n ast.Node) bool {
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
		return true
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
// Kernel scratch comes from the sync.Pool of fixed-size arrays (whose
// one sanctioned allocation is `new` in the pool's New func).
func (p *pass) hotAllocFile(f *ast.File) {
	p.hotAllocIn(f, "in a hot-path package; use a pooled or caller-provided buffer")
}

// hotAllocGoroutines applies the same ban only inside goroutine bodies
// of the worker packages: code launched with `go func` is the per-task
// execution engine, while setup code around it may allocate freely
// (queues and ownership tables are built once per factorization).
func (p *pass) hotAllocGoroutines(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if fl, ok := g.Call.Fun.(*ast.FuncLit); ok {
			p.hotAllocIn(fl.Body, "in a worker goroutine runs once per task; hoist it to setup")
		}
		return true
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

type lockChecker struct {
	pass         *pass
	fnPos, fnEnd token.Pos
	locked       int
}

func (lc *lockChecker) block(stmts []ast.Stmt) {
	for _, s := range stmts {
		lc.stmt(s)
	}
}

// terminates reports whether a block always transfers control out
// (return, break, continue, goto, or panic as the last statement).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (lc *lockChecker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		lc.expr(st.X)
	case *ast.AssignStmt:
		if st.Tok != token.DEFINE {
			for _, lhs := range st.Lhs {
				lc.checkWrite(lhs)
			}
		}
		for _, rhs := range st.Rhs {
			lc.expr(rhs)
		}
	case *ast.IncDecStmt:
		lc.checkWrite(st.X)
	case *ast.IfStmt:
		if st.Init != nil {
			lc.stmt(st.Init)
		}
		lc.expr(st.Cond)
		lc.branch(st.Body)
		if st.Else != nil {
			if eb, ok := st.Else.(*ast.BlockStmt); ok {
				lc.branch(eb)
			} else {
				lc.stmt(st.Else)
			}
		}
	case *ast.ForStmt:
		if st.Init != nil {
			lc.stmt(st.Init)
		}
		if st.Cond != nil {
			lc.expr(st.Cond)
		}
		lc.block(st.Body.List)
		if st.Post != nil {
			lc.stmt(st.Post)
		}
	case *ast.RangeStmt:
		if st.Tok == token.ASSIGN {
			if st.Key != nil {
				lc.checkWrite(st.Key)
			}
			if st.Value != nil {
				lc.checkWrite(st.Value)
			}
		}
		lc.expr(st.X)
		lc.block(st.Body.List)
	case *ast.BlockStmt:
		lc.block(st.List)
	case *ast.DeferStmt:
		lc.expr(st.Call.Fun)
		for _, a := range st.Call.Args {
			lc.expr(a)
		}
	case *ast.GoStmt:
		if fl, ok := st.Call.Fun.(*ast.FuncLit); ok {
			inner := &lockChecker{pass: lc.pass, fnPos: fl.Pos(), fnEnd: fl.End()}
			inner.block(fl.Body.List)
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			lc.stmt(st.Init)
		}
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				saved := lc.locked
				lc.block(cc.Body)
				lc.locked = saved
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				saved := lc.locked
				lc.block(cc.Body)
				lc.locked = saved
			}
		}
	case *ast.SelectStmt:
		for _, clause := range st.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				saved := lc.locked
				lc.block(cc.Body)
				lc.locked = saved
			}
		}
	case *ast.LabeledStmt:
		lc.stmt(st.Stmt)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			lc.expr(r)
		}
	case *ast.SendStmt:
		lc.expr(st.Chan)
		lc.expr(st.Value)
	}
}

// branch analyzes a conditional block; if the block always leaves the
// enclosing flow (early unlock-and-return), its lock-state changes do
// not apply to the statements after the if.
func (lc *lockChecker) branch(b *ast.BlockStmt) {
	if terminates(b) {
		saved := lc.locked
		lc.block(b.List)
		lc.locked = saved
		return
	}
	lc.block(b.List)
}

func (lc *lockChecker) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.CallExpr:
		switch lc.lockKind(x) {
		case "lock":
			lc.locked++
			return
		case "unlock":
			lc.locked--
			return
		}
		lc.expr(x.Fun)
		for _, a := range x.Args {
			lc.expr(a)
		}
	case *ast.FuncLit:
		// A closure (deferred recover handler, callback) establishes its
		// own locking regime; analyze it independently.
		inner := &lockChecker{pass: lc.pass, fnPos: x.Pos(), fnEnd: x.End()}
		inner.block(x.Body.List)
	case *ast.ParenExpr:
		lc.expr(x.X)
	case *ast.UnaryExpr:
		lc.expr(x.X)
	case *ast.BinaryExpr:
		lc.expr(x.X)
		lc.expr(x.Y)
	case *ast.IndexExpr:
		lc.expr(x.X)
		lc.expr(x.Index)
	case *ast.SelectorExpr:
		lc.expr(x.X)
	case *ast.TypeAssertExpr:
		lc.expr(x.X)
	case *ast.StarExpr:
		lc.expr(x.X)
	}
}

// lockKind classifies a call as a sync lock acquisition or release.
func (lc *lockChecker) lockKind(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var kind string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return ""
	}
	s := lc.pass.pi.info.Selections[sel]
	if s == nil || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return kind
}

// checkWrite flags an assignment target that resolves to a variable
// declared outside the goroutine while no lock is held.
func (lc *lockChecker) checkWrite(e ast.Expr) {
	base := e
	for {
		switch v := base.(type) {
		case *ast.IndexExpr:
			lc.expr(v.Index)
			base = v.X
		case *ast.ParenExpr:
			base = v.X
		case *ast.StarExpr:
			base = v.X
		case *ast.SelectorExpr:
			base = v.X
		default:
			id, ok := base.(*ast.Ident)
			if !ok || id.Name == "_" {
				return
			}
			obj := lc.pass.pi.info.Uses[id]
			if obj == nil {
				return // defined here: local by construction
			}
			vr, ok := obj.(*types.Var)
			if !ok || vr.IsField() {
				return
			}
			if obj.Pos() >= lc.fnPos && obj.Pos() < lc.fnEnd {
				return // declared inside the goroutine
			}
			if lc.locked <= 0 {
				lc.pass.report(e.Pos(), "lock-discipline",
					"write to shared variable %q in a worker goroutine without holding a lock", id.Name)
			}
			return
		}
	}
}

// requestCtx enforces context hygiene in the request-serving packages:
// context.Background()/context.TODO() are forbidden (they discard the
// request's deadline and disconnect signal exactly where those must
// reach the numeric kernels), and every `go` statement must visibly
// thread a cancellation signal — the spawned code or its arguments
// must reference a context.Context or *sched.Canceler value, or
// perform a channel operation. Timer callbacks (time.AfterFunc) are
// not `go` statements and stay out of scope: they are one-shot and
// stopped by their owners.
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
					"goroutine does not thread a cancellation signal (no context.Context, *sched.Canceler or channel operation); a detached goroutine in a long-lived server outlives its request")
			}
		}
		return true
	})
}

// threadsCancellation reports whether the spawned call references a
// cancellation carrier: a value of type context.Context or
// sched.Canceler anywhere in the call (arguments included), or a
// channel operation / channel-typed value inside a function literal's
// body.
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
// context.Context, sched.Canceler (possibly behind a pointer), and
// channels.
func carriesCancellation(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return carriesCancellation(u.Elem())
	case *types.Chan:
		return true
	}
	switch s := t.String(); {
	case s == "context.Context":
		return true
	case strings.HasSuffix(s, "/sched.Canceler") || s == "sched.Canceler":
		return true
	}
	return false
}
