package sched

import (
	"fmt"

	"repro/internal/luerr"
)

// ErrCanceled is the sentinel matched by errors.Is on every execution
// whose context was done before all tasks completed. It also matches
// luerr.ErrCanceled, the module-wide cancellation class.
var ErrCanceled = luerr.Tag("sched: execution canceled", luerr.ErrCanceled)

// CancelError reports an execution stopped by its context before every
// task ran. It matches errors.Is(err, ErrCanceled) and unwraps to the
// cancellation cause.
type CancelError struct {
	// Cause is context.Cause of the execution's context: the deadline's
	// or the canceller's cause, context.Canceled when none was given.
	Cause error
	// Completed and Total count the tasks that finished before the
	// workers observed the cancellation, and the tasks of the graph.
	Completed, Total int
}

// Error formats the cancellation with its progress attached.
func (e *CancelError) Error() string {
	return fmt.Sprintf("sched: execution canceled after %d of %d tasks: %v", e.Completed, e.Total, e.Cause)
}

// Unwrap exposes the cancellation cause to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is matches the ErrCanceled sentinel and the module-wide cancellation
// class, independent of the cause — a deadline-canceled execution is
// both "canceled" and "deadline exceeded", and the cause chain (Unwrap)
// resolves the second half.
func (e *CancelError) Is(target error) bool {
	return target == ErrCanceled || target == luerr.ErrCanceled
}
