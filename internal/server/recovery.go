package server

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/luerr"
	"repro/internal/sparse"
)

// The numeric recovery ladder. Each rung is one factorization attempt
// with a progressively more forgiving configuration; the service
// climbs until an attempt produces usable factors or the ladder is
// exhausted. Every rung tried is recorded in the response, so a client
// always learns which degradation (if any) its factors carry.
type rung int

const (
	// rungFail is the strict contract: PivotFail, no scaling. A success
	// here means the factors carry no perturbation and plain solves are
	// exact to working accuracy.
	rungFail rung = iota
	// rungPerturb retries with static pivot perturbation (tiny pivots
	// replaced by ±√ε·‖A‖), the SuperLU_DIST-style graceful path.
	// Solves against these factors are iteratively refined.
	rungPerturb
	// rungEquilibrate additionally row/column-equilibrates the matrix
	// before perturbing, rescuing badly scaled systems whose pivots
	// underflow the perturbation threshold. Solves are refined.
	rungEquilibrate
	numRungs
)

func (r rung) String() string {
	switch r {
	case rungFail:
		return "fail"
	case rungPerturb:
		return "perturb"
	case rungEquilibrate:
		return "equilibrate"
	}
	return "unknown"
}

// RungReport is the per-attempt record returned to clients.
type RungReport struct {
	Rung          string `json:"rung"`
	OK            bool   `json:"ok"`
	Error         string `json:"error,omitempty"`
	Perturbations int    `json:"perturbations,omitempty"`
}

// ladderResult is a successful climb: the factors, the attempts that
// led to them, and whether solves must go through iterative refinement
// (true whenever the winning rung perturbed or rescaled the system).
type ladderResult struct {
	f      *core.Factorization
	rungs  []RungReport
	won    rung
	refine bool
}

// rungsFor maps the request's policy string to the attempt sequence.
// "ladder" (the default) climbs all three rungs; "fail" and "perturb"
// pin a single rung for clients that want the strict or the perturbed
// contract with no fallback.
func rungsFor(policy string) ([]rung, error) {
	switch policy {
	case "", "ladder":
		return []rung{rungFail, rungPerturb, rungEquilibrate}, nil
	case "fail":
		return []rung{rungFail}, nil
	case "perturb":
		return []rung{rungPerturb}, nil
	}
	return nil, fmt.Errorf("server: unknown pivot policy %q (want ladder, fail or perturb)", policy)
}

// climbLadder runs the recovery ladder for one factorize request. base
// carries the request-scoped numeric state (workers and the request
// context); each rung overrides only the pivot policy and
// equilibration. Every rung runs under the same context: a rung's
// failure stops only that rung, never the context. Deadline and
// cancellation failures abort the climb immediately — retrying a
// canceled request on a softer rung would just burn more of a budget
// that is already gone — while numeric failures (singular, non-finite)
// fall through to the next rung.
func climbLadder(sym *core.Symbolic, m *sparse.CSC, base core.NumericOptions, policy string) (*ladderResult, error) {
	seq, err := rungsFor(policy)
	if err != nil {
		return nil, err
	}
	rungs := make([]RungReport, 0, len(seq))
	var lastErr error
	for _, r := range seq {
		nopts := base
		switch r {
		case rungFail:
			nopts.PivotPolicy = core.PivotFail
			nopts.Equilibrate = false
		case rungPerturb:
			nopts.PivotPolicy = core.PivotPerturb
			nopts.Equilibrate = false
		case rungEquilibrate:
			nopts.PivotPolicy = core.PivotPerturb
			nopts.Equilibrate = true
		}
		f, err := core.FactorizeWithOpts(sym, m, &nopts)
		if err != nil {
			// A numeric failure (singular, non-finite) is the failing
			// task's *sched.TaskError and falls through to the next
			// rung; a *sched.CancelError (the request's deadline or
			// disconnect) aborts the climb.
			if errors.Is(err, luerr.ErrCanceled) {
				return nil, err
			}
			rungs = append(rungs, RungReport{Rung: r.String(), Error: err.Error()})
			lastErr = err
			continue
		}
		if f.Singular() {
			err := fmt.Errorf("server: rung %s: %w", r, &core.SingularError{Col: f.SingularColumn()})
			rungs = append(rungs, RungReport{Rung: r.String(), Error: err.Error()})
			lastErr = err
			continue
		}
		pert := f.PivotPerturbations()
		rungs = append(rungs, RungReport{Rung: r.String(), OK: true, Perturbations: pert})
		return &ladderResult{
			f:     f,
			rungs: rungs,
			won:   r,
			// Perturbed pivots mean the factors solve a nearby system,
			// not A itself: refinement recovers the residual bound the
			// client was promised. (Equilibration alone is transparent —
			// solves undo the scaling exactly.)
			refine: pert > 0,
		}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("server: recovery ladder exhausted with no attempts")
	}
	return &ladderResult{rungs: rungs}, lastErr
}
