// Package luerr is the unified error taxonomy of the module: a small
// set of failure-class sentinels that every layer's structured errors
// resolve to under errors.Is, regardless of which solver produced them.
//
// The solvers keep their own sentinels and structured types —
// core.SingularError carries the failing column, sched.CancelError the
// execution progress, sched.TaskError the task notation — but each of
// those chains (via Unwrap or Is) to exactly one class here. Callers
// that need to triage a failure without knowing its origin (the solve
// service mapping errors to HTTP status codes, retry ladders deciding
// whether a rung is worth climbing) switch on the classes; callers that
// need the details keep using errors.As on the structured types.
//
// The classes, and the service's documented status mapping:
//
//	class         meaning                                       HTTP
//	ErrSingular   zero/inadmissible pivot (core and gplu), or   422
//	              no zero-free diagonal (core.Analyze)
//	ErrNonFinite  NaN/Inf entered the factors                   422
//	ErrDeadline   a phase deadline expired                      504
//	ErrCanceled   caller or peer canceled the execution         499
//
// This package imports nothing from the module so that every layer —
// core, gplu, sched, the server — can depend on it without cycles.
package luerr

import "errors"

// Class sentinels. Match them with errors.Is; they are never returned
// bare — each solver wraps them under its own message via Tag.
var (
	// ErrSingular classifies singularity: an exactly zero (or, under
	// static pivoting, inadmissibly tiny) pivot in any solver, or a
	// structurally singular pattern found by the analysis.
	ErrSingular = errors.New("sparselu: numerically singular")
	// ErrNonFinite classifies NaN/Inf contamination detected by the
	// kernels' guards.
	ErrNonFinite = errors.New("sparselu: non-finite value")
	// ErrDeadline classifies phase-deadline expiry (factorization or
	// solve timeouts).
	ErrDeadline = errors.New("sparselu: deadline exceeded")
	// ErrCanceled classifies executions stopped by an external
	// cancellation signal before completing.
	ErrCanceled = errors.New("sparselu: canceled")
)

// tagged is a named sentinel bound to its class: it compares equal to
// itself (the layer's historical identity checks keep working) and
// unwraps to the class, so errors.Is resolves both.
type tagged struct {
	msg   string
	class error
}

func (e *tagged) Error() string { return e.msg }

// Unwrap exposes the class to errors.Is.
func (e *tagged) Unwrap() error { return e.class }

// Tag builds a layer-local sentinel with the given message that also
// matches class under errors.Is. The layers declare their exported
// sentinels with it:
//
//	var ErrNonFinite = luerr.Tag("core: non-finite value in factorization", luerr.ErrNonFinite)
//
// so existing errors.Is(err, core.ErrNonFinite) checks and the class
// check errors.Is(err, luerr.ErrNonFinite) both hold on one chain.
func Tag(msg string, class error) error {
	return &tagged{msg: msg, class: class}
}
