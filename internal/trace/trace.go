// Package trace is the observability layer of the parallel numeric
// phase: a low-overhead per-task event recorder plus the analysis
// passes (per-task durations for the realized critical path,
// per-worker utilization, per-kind histograms) and a Chrome trace_event exporter that every scheduling
// experiment builds on.
//
// The recorder is designed for the executor hot path:
//
//   - one append-only event buffer per worker, padded against false
//     sharing, so recording never takes a lock;
//   - timestamps are nanoseconds on the monotonic clock relative to the
//     recorder's creation (a single time.Since call per edge);
//   - a nil *Recorder costs exactly one predictable branch per task in
//     the executors, so production runs pay nothing measurable.
//
// Recording is racy by design across workers (each worker owns its
// buffer); Events must only be called after the execution has finished,
// i.e. after the executor's WaitGroup has completed, which establishes
// the necessary happens-before edge.
//
// All timing of the numeric phase is centralized here: the lucheck rule
// worker-timing forbids direct time.Now calls inside the sched worker
// loops, so traces stay the single source of truth for task times.
package trace

import (
	"sort"
	"time"
)

// Kind classifies a recorded task.
type Kind uint8

const (
	// KindFactor is a panel factorization task F(k).
	KindFactor Kind = iota
	// KindUpdate is a block-column update task U(k, j).
	KindUpdate
	// KindScale is a pre-factorization scaling pass (equilibration).
	KindScale
	// KindAbort marks the instant a worker published a task failure and
	// tripped the execution's cancel flag. It carries the failing task's
	// id and column; its duration is zero.
	KindAbort
	// KindSolveL is one forward-sweep task of the triangular solves —
	// the L̄ sweep of Solve/SolveMany or the L̄ᵀ sweep of
	// SolveTranspose. It carries the block column in Col; Task is
	// NoTask (solve tasks are not part of the factorization graph).
	KindSolveL
	// KindSolveU is one backward-sweep solve task — the Ū sweep, or
	// the Ûᵀ sweep of SolveTranspose.
	KindSolveU
	// KindSteal is one successful steal of the work-stealing executor:
	// the span from the moment a worker's own deque came up empty to the
	// moment it obtained a task from a victim. Task is NoTask; Col
	// carries the victim worker's id. Recorded only when the recorder
	// has scheduler events enabled (SetSchedEvents).
	KindSteal
	// KindIdle is one parked span of the work-stealing executor: the
	// worker found every deque empty and slept until it was woken. Task
	// is NoTask, Col is -1. Recorded only when scheduler events are
	// enabled.
	KindIdle
	// numKinds bounds the Kind enumeration for per-kind aggregation.
	numKinds
)

// IsSched reports whether the kind is a scheduler event (steal or idle
// span) rather than executed work: scheduler events are excluded from
// busy time and utilization in Summarize.
func (k Kind) IsSched() bool { return k == KindSteal || k == KindIdle }

// String names the kind for exports and summaries.
func (k Kind) String() string {
	switch k {
	case KindFactor:
		return "factor"
	case KindUpdate:
		return "update"
	case KindScale:
		return "scale"
	case KindAbort:
		return "abort"
	case KindSolveL:
		return "solveL"
	case KindSolveU:
		return "solveU"
	case KindSteal:
		return "steal"
	case KindIdle:
		return "idle"
	}
	return "unknown"
}

// NoTask is the Task id of events that do not correspond to a task of
// the dependence graph (e.g. the equilibration scale pass).
const NoTask = -1

// Event is one recorded task execution. Start and End are nanoseconds
// since the recorder's creation.
type Event struct {
	Start  int64
	End    int64
	Task   int32 // task id in the dependence graph, or NoTask
	Col    int32 // destination block column, or -1
	Worker int32
	Kind   Kind
}

// Duration returns the event's span in nanoseconds.
func (e Event) Duration() int64 { return e.End - e.Start }

// workerBuf is one worker's private append-only buffer. The padding
// keeps two workers' slice headers on different cache lines so the
// hot-path appends do not ping-pong a line between cores.
type workerBuf struct {
	events []Event
	_      [104]byte
}

// Recorder collects execution events from a fixed set of workers.
type Recorder struct {
	epoch       time.Time
	schedEvents bool
	bufs        []workerBuf
}

// New returns a recorder for the given number of workers (values below
// 1 mean 1). Each worker gets its own buffer; worker ids passed to
// Record must be in [0, workers).
func New(workers int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	return &Recorder{epoch: time.Now(), bufs: make([]workerBuf, workers)}
}

// Workers returns the number of per-worker buffers.
func (r *Recorder) Workers() int { return len(r.bufs) }

// SetSchedEvents enables or disables scheduler-event recording (steal
// and idle spans, KindSteal/KindIdle). It defaults to off so a plain
// traced run records exactly one event per task; turning it on makes
// the executor's search time visible in Chrome traces. Must not be
// called concurrently with a traced execution.
func (r *Recorder) SetSchedEvents(on bool) { r.schedEvents = on }

// SchedEvents reports whether scheduler-event recording is enabled.
func (r *Recorder) SchedEvents() bool { return r.schedEvents }

// Now returns the current trace clock in nanoseconds since the
// recorder was created. It reads the monotonic clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// Record appends one event to worker's buffer, stamping the end time
// with the trace clock. It returns the stamped end so an executor that
// immediately continues with another task can start that task's span
// here — charging the hand-over bookkeeping between the two to the
// next span instead of leaving a clock-read-sized hole between them.
// It takes no locks; a worker id outside the recorder's range is a
// programming error and panics.
func (r *Recorder) Record(worker, task int, kind Kind, col int, start int64) int64 {
	if worker < 0 || worker >= len(r.bufs) {
		panic("trace: worker id outside the recorder's range")
	}
	end := r.Now()
	b := &r.bufs[worker]
	b.events = append(b.events, Event{
		Start:  start,
		End:    end,
		Task:   int32(task),
		Col:    int32(col),
		Worker: int32(worker),
		Kind:   kind,
	})
	return end
}

// Reset drops all recorded events, keeping the buffers' capacity and
// the epoch. Must not race with Record.
func (r *Recorder) Reset() {
	for i := range r.bufs {
		r.bufs[i].events = r.bufs[i].events[:0]
	}
}

// Events merges the per-worker buffers into one slice sorted by start
// time (ties by worker, then task). It must only be called after the
// traced execution has finished.
func (r *Recorder) Events() []Event {
	total := 0
	for i := range r.bufs {
		total += len(r.bufs[i].events)
	}
	out := make([]Event, 0, total)
	for i := range r.bufs {
		out = append(out, r.bufs[i].events...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.Task < b.Task
	})
	return out
}

// Stopwatch is the sanctioned wall-clock access for coarse phase
// timing outside the recorder (analysis stage durations): the
// determinism-contract packages must not read time.Now directly, and a
// duration that only feeds timing statistics — never an ordered
// structure — belongs here with the rest of the observability clock.
type Stopwatch struct {
	start time.Time
}

// NewStopwatch starts measuring.
func NewStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Seconds returns the monotonic-clock seconds since the stopwatch
// started.
func (s Stopwatch) Seconds() float64 { return time.Since(s.start).Seconds() }
