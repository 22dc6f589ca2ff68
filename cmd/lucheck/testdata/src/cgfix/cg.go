// Package cgfix exercises the call-graph construction: method values,
// interface dispatch, closures handed to the sched executors, function
// values flowing through variables, and per-arch file selection. It is
// compiled by the lucheck tests under a virtual import path and must
// never build as part of the real module.
package cgfix

import (
	"repro/internal/sched"
	"repro/internal/taskgraph"
)

// counter's tick method is handed to sched.Run as a METHOD VALUE: the
// call graph must mark it a worker root.
type counter struct{ n int }

func (c *counter) tick(id int) error {
	c.n++
	return nil
}

// RunMethodValue passes c.tick to sched.Run.
func RunMethodValue(g *taskgraph.Graph, c *counter) error {
	return sched.Run(g, sched.RunOptions{Procs: 2}, c.tick)
}

// RunClosure passes a literal to the plain form sched.Execute: the
// literal's node must be a worker root.
func RunClosure(g *taskgraph.Graph) error {
	hits := 0
	err := sched.Execute(g, nil, 1, nil, func(id int) error {
		hits = id
		return nil
	})
	_ = hits
	return err
}

// stepper dispatch: drive's call must resolve to BOTH concrete
// implementations via the type-set approximation.
type stepper interface{ step() }

type fwd struct{}

func (fwd) step() {}

type bwd struct{}

func (bwd) step() {}

func drive(s stepper) {
	s.step()
}

// DriveBoth keeps the concrete types and drive reachable.
func DriveBoth() {
	drive(fwd{})
	drive(bwd{})
}

// hook carries function values assigned through a variable: invoke's
// indirect call must resolve flow-insensitively to helperA.
var hook func()

func helperA() {}

func install() { hook = helperA }

func invoke() {
	if hook != nil {
		hook()
	}
}

// Wire keeps install/invoke reachable.
func Wire() {
	install()
	invoke()
}
