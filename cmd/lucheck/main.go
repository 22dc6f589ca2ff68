// Command lucheck is the project-specific static checker for the
// parallel sparse LU codebase. It parses and type-checks the whole
// module with the standard library's go/ast and go/types and makes one
// syntactic pass over the files, enforcing the invariants whose
// violation no test, go vet or the race detector would show on an idle
// host (what those do pin — accumulation order, shared writes in
// worker goroutines — is left to them; see DESIGN §12):
//
//   - pattern-mutation: the CSC/Pattern structure slices (ColPtr,
//     RowInd) back the *static* symbolic factorization; they may only
//     be written inside the constructor packages (internal/sparse,
//     internal/symbolic). Everywhere else the sparsity structure is
//     read-only; the numeric values (Val) stay writable.
//   - naked-panic: internal/* library packages must panic with a
//     "<pkg>: ..."-prefixed message (or return an error) so crashes
//     name the subsystem whose invariant broke.
//   - float-equality: ==/!= between two non-constant floats in the
//     numeric kernels (internal/blas, internal/core, internal/gplu).
//     Comparisons against constants (singularity tests against zero)
//     stay legal.
//   - nondet-source: non-test code of the determinism-contract
//     packages (internal/core, sched, taskgraph, symbolic) may not range
//     over a map, select over two or more communication cases, import
//     math/rand or read the wall clock — nothing of nondeterministic
//     order can enter a schedule that the package cannot produce.
//   - worker-timing: goroutine bodies in the worker packages
//     (internal/sched, symbolic, core) may not read the wall clock
//     (time.Now / time.Since) directly; task timing goes through the
//     internal/trace recorder so traces are the single source of truth
//     and untraced runs pay no timing cost.
//   - worker-exit: goroutine bodies in the worker packages may not
//     terminate the process (os.Exit, log.Fatal*); failures must flow
//     through the scheduler's TaskError/cancellation contract so the
//     caller learns which task failed and the pool shuts down cleanly.
//   - hot-alloc: the numeric hot path is allocation-free by contract.
//     internal/blas non-test code may not call make or append at all
//     (kernel scratch comes from the packing-scratch pool); goroutine
//     bodies in the worker packages may not either, since anything there
//     runs once per task, and neither may the closures internal/core
//     hands to the sched executors. Setup code outside worker closures
//     may allocate freely.
//   - spin-loop: an unbounded work-polling loop in the worker packages
//     must block or back off between polls.
//   - request-ctx: internal/server may not call context.Background or
//     context.TODO, and every `go` statement there must thread a
//     cancellation signal.
//   - allow-justification: every //lucheck:allow must name its rules
//     and carry a justification ("— <why>"); a bare allow suppresses
//     but is itself a finding, and -audit lists the full inventory.
//
// Findings can be waived with
//
//	//lucheck:allow <rule>[,<rule>...] — <justification>
//
// on the same line or the line above, which keeps deliberate
// exceptions greppable and reviewable.
//
// Usage:
//
//	go run ./cmd/lucheck [-audit] [-sarif file] ./...
//
// The only accepted package argument is ./... (the checker always
// analyzes the whole module, starting from the enclosing go.mod).
// Findings go to stdout as file:line:col: [rule] message lines; -sarif
// additionally writes them as a SARIF 2.1.0 log for code scanning, and
// -audit also lists every suppression with its justification. Exit
// status is 0 when the module is clean and 1 when findings remain.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
)

func main() {
	var (
		audit     = flag.Bool("audit", false, "also inventory every //lucheck:allow suppression")
		sarifPath = flag.String("sarif", "", "also write the findings to this file as a SARIF 2.1.0 log")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lucheck [-audit] [-sarif file] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." {
			fmt.Fprintf(os.Stderr, "usage: lucheck [flags] [./...]  (always checks the whole module)\n")
			os.Exit(2)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, modPath, err := moduleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	fset := token.NewFileSet()
	pkgs, err := loadModule(fset, root, modPath, nil)
	if err != nil {
		fatal(err)
	}

	a := analyzeModule(fset, pkgs, defaultConfig(modPath))
	for _, f := range a.findings {
		fmt.Println(f)
	}
	if *sarifPath != "" {
		out, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := writeSARIF(out, root, a.findings); err != nil {
			fatal(err)
		}
		if err := out.Close(); err != nil {
			fatal(err)
		}
	}
	if *audit {
		writeAudit(os.Stdout, root, a.supps)
	}

	if len(a.findings) > 0 {
		fmt.Fprintf(os.Stderr, "lucheck: %d finding(s)\n", len(a.findings))
		os.Exit(1)
	}
	noun := "packages"
	if len(pkgs) == 1 {
		noun = "package"
	}
	fmt.Fprintf(os.Stderr, "lucheck: %d %s clean\n", len(pkgs), noun)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "lucheck: %v\n", err)
	os.Exit(2)
}
