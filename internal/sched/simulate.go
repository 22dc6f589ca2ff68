package sched

import (
	"container/heap"
	"fmt"

	"repro/internal/taskgraph"
)

// RAPID, the run-time system the paper used, is an inspector/executor:
// it computes a static schedule (a fixed task order per processor) from
// estimated task costs before the numeric phase starts, then each
// processor executes its sequence in order, blocking whenever the next
// task's dependences are not yet satisfied. On real hardware the actual
// task times deviate from the estimates (cache misses, NUMA placement,
// contention), so the fixed order meets delays it did not plan for —
// and every dependence edge is a channel through which a delay cascades.
// That is precisely where the paper's leaner eforest-guided graph beats
// S*: with fewer (and no false) dependences, fewer stalls propagate.
//
// This file is that model: one inspector (plan, a priority-ordered list
// scheduler) and one executor (replay, the in-order run of
// per-processor sequences). Simulate is plan then replay; Replay is the
// executor alone, for sequences recorded from a real run.

// Machine models the parallel machine for the discrete-event simulator.
// The defaults approximate the paper's testbed, a 16-processor SGI
// Origin 2000 (R10000 @195 MHz, hypercube interconnect): ~180 Mflop/s
// effective per processor on BLAS-3-rich kernels and a few microseconds
// per message.
type Machine struct {
	// Procs is the number of processors.
	Procs int
	// FlopRate is the effective scalar rate in flops per second.
	FlopRate float64
	// Latency is the fixed cost in seconds of one inter-processor
	// message (a panel broadcast edge).
	Latency float64
	// InvBandwidth is the cost in seconds per transferred word.
	InvBandwidth float64
	// TaskOverhead is the fixed dispatch/synchronization cost in
	// seconds added to every task, modeling the per-task bookkeeping of
	// an inspector-executor runtime like RAPID. It is what makes long
	// serialized chains of tiny update tasks expensive.
	TaskOverhead float64
}

// taskSeconds converts the cost model's flop counts to seconds on this
// machine, including the per-task overhead.
func (m Machine) taskSeconds(flops []float64) []float64 {
	out := make([]float64, len(flops))
	for i, f := range flops {
		out[i] = f/m.FlopRate + m.TaskOverhead
	}
	return out
}

// check rejects a machine no schedule can be simulated on.
func (m Machine) check() error {
	if m.Procs < 1 {
		return fmt.Errorf("sched: machine with %d processors", m.Procs)
	}
	if m.FlopRate <= 0 {
		return fmt.Errorf("sched: non-positive flop rate")
	}
	return nil
}

// Origin2000 returns the default machine model with the given processor
// count.
func Origin2000(procs int) Machine {
	return Machine{
		Procs:        procs,
		FlopRate:     180e6,
		Latency:      10e-6,
		InvBandwidth: 1.0 / (160e6 / 8), // 160 MB/s peak link, 8-byte words
		TaskOverhead: 30e-6,
	}
}

// SimResult reports a simulated schedule.
type SimResult struct {
	// Makespan is the simulated completion time in seconds.
	Makespan float64
	// Start and Finish give the simulated time bounds of every task.
	Start, Finish []float64
	// Proc is the processor every task ran on.
	Proc []int
	// ProcBusy is the total busy time of each processor.
	ProcBusy []float64
	// CommEvents counts the cross-processor dependence edges.
	CommEvents int
}

// Efficiency returns Σbusy / (P · makespan).
func (r *SimResult) Efficiency() float64 {
	if r.Makespan == 0 {
		return 1
	}
	var busy float64
	for _, b := range r.ProcBusy {
		busy += b
	}
	return busy / (float64(len(r.ProcBusy)) * r.Makespan)
}

// Perturb controls how far the executed task times of Simulate deviate
// from the estimates the schedule was planned with.
type Perturb struct {
	// Amplitude a scales task time by a factor in [1−a, 1+a]. The
	// default 0 means execution matches the estimates exactly.
	Amplitude float64
	// Seed selects the deterministic pseudo-random stream.
	Seed uint64
}

// factor returns the deterministic perturbation factor for task id.
func (p Perturb) factor(id int) float64 {
	if p.Amplitude == 0 {
		return 1
	}
	// SplitMix64 on (seed, id): cheap, stateless, deterministic.
	z := p.Seed + 0x9e3779b97f4a7c15*(uint64(id)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53) // [0,1)
	return 1 + p.Amplitude*(2*u-1)
}

// Simulate plans a static schedule of the task graph on the machine from
// the cost model's estimates, then executes it in order under the
// perturbed task times and returns the executed schedule.
//
// The plan is deterministic list scheduling: ready tasks are taken in
// descending bottom-level priority (ties by task id). A nil place puts
// each task on the processor that can start it earliest — the paper's
// runtime (RAPID on the cache-coherent Origin 2000) schedules tasks, not
// block columns, which is what exposes the parallelism the
// eforest-guided graph adds over S*. A non-nil place fixes the processor
// of every task (TaskOwners for the 1-D block-column mapping), so only
// the order on each processor is left to the planner. words(from, to) is
// the message volume of a dependence edge whose endpoints run on
// different processors; nil means latency only.
//
// Both graph variants see the same perturbed time for the same task, so
// a comparison isolates the dependence structure; with the zero Perturb
// the executed schedule is the plan itself, start for start.
func Simulate(g *taskgraph.Graph, cm *taskgraph.CostModel, m Machine, words func(from, to int) float64, place []int, perturb Perturb) (*SimResult, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if place != nil {
		if len(place) != g.NumTasks() {
			return nil, fmt.Errorf("sched: placement of %d tasks for a graph of %d", len(place), g.NumTasks())
		}
		for id, p := range place {
			if p < 0 || p >= m.Procs {
				return nil, fmt.Errorf("sched: task %d placed on processor %d of %d", id, p, m.Procs)
			}
		}
	}
	times := m.taskSeconds(cm.TaskFlops)
	seqs, _, _, err := plan(g, times, m, words, place)
	if err != nil {
		return nil, err
	}
	for id := range times {
		times[id] *= perturb.factor(id)
	}
	return replay(g, seqs, times, m, words)
}

// Replay executes given per-processor task sequences in order, one
// sequence per processor of m, under the cost model's task times: a task
// starts when its processor has finished the task before it and every
// predecessor has finished (plus the message time of a cross-processor
// edge). It is the executor half of Simulate, for schedules that come
// from elsewhere — trace.WorkerSequences of a real run. Sequences that
// miss a task, repeat one, name one outside the graph, or order tasks so
// that the processors wait on each other forever are an error.
func Replay(g *taskgraph.Graph, seqs [][]int32, cm *taskgraph.CostModel, m Machine, words func(from, to int) float64) (*SimResult, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	return replay(g, seqs, m.taskSeconds(cm.TaskFlops), m, words)
}

// arrival is one satisfied dependence of a task whose processor is not
// chosen yet: the predecessor's finish time and processor, and the
// message cost paid if the task runs anywhere else.
type arrival struct {
	finish float64
	proc   int
	comm   float64
}

// earliestStart returns when a task with the given arrivals can start on
// processor p, free from procFree on: panels live in the memory of the
// processor that produced them (a NUMA machine), so every dependence
// edge whose endpoints run on different processors costs a message.
func earliestStart(arrivals []arrival, p int, procFree float64) float64 {
	start := procFree
	for _, a := range arrivals {
		t := a.finish
		if a.proc != p {
			t += a.comm
		}
		if t > start {
			start = t
		}
	}
	return start
}

// plan is the inspector: list scheduling of g under the task times.
// It returns every processor's task sequence in planned order and the
// planned start and finish of every task. A processor is never handed a
// task to run before one it already has, so a sequence is also in start
// order.
func plan(g *taskgraph.Graph, times []float64, m Machine, words func(from, to int) float64, place []int) (seqs [][]int32, start, finish []float64, err error) {
	prio, err := g.BottomLevels(times) // also rejects a cyclic graph
	if err != nil {
		return nil, nil, nil, err
	}
	nt := g.NumTasks()
	start = make([]float64, nt)
	finish = make([]float64, nt)
	seqs = make([][]int32, m.Procs)
	procFree := make([]float64, m.Procs)
	arrivals := make([][]arrival, nt)
	indeg := g.InDegrees()
	ready := &priorityQueue{prio: prio}
	for id, d := range indeg {
		if d == 0 {
			ready.ids = append(ready.ids, id)
		}
	}
	heap.Init(ready)

	for ready.Len() > 0 {
		id := heap.Pop(ready).(int)
		var p int
		if place != nil {
			p = place[id]
			start[id] = earliestStart(arrivals[id], p, procFree[p])
		} else {
			for q := range procFree {
				if s := earliestStart(arrivals[id], q, procFree[q]); q == 0 || s < start[id] {
					p, start[id] = q, s
				}
			}
		}
		finish[id] = start[id] + times[id]
		procFree[p] = finish[id]
		seqs[p] = append(seqs[p], int32(id))
		for _, s := range g.Succ[id] {
			arrivals[s] = append(arrivals[s], arrival{finish: finish[id], proc: p, comm: m.edgeComm(id, int(s), words)})
			indeg[s]--
			if indeg[s] == 0 {
				heap.Push(ready, int(s))
			}
		}
	}
	return seqs, start, finish, nil
}

// replay is the executor: every processor runs its sequence in order
// under the given task times. A task's start depends only on the finish
// of the task before it on its processor and of its predecessors, so
// the processors are advanced round-robin, each as far as its next
// task's predecessors have run; a round that advances nobody is a
// deadlock.
func replay(g *taskgraph.Graph, seqs [][]int32, times []float64, m Machine, words func(from, to int) float64) (*SimResult, error) {
	nt := g.NumTasks()
	if len(seqs) != m.Procs {
		return nil, fmt.Errorf("sched: %d task sequences for %d processors", len(seqs), m.Procs)
	}
	proc := make([]int, nt)
	for id := range proc {
		proc[id] = -1
	}
	covered := 0
	for p, seq := range seqs {
		for _, id := range seq {
			if id < 0 || int(id) >= nt {
				return nil, fmt.Errorf("sched: task %d outside the graph of %d tasks", id, nt)
			}
			if proc[id] != -1 {
				return nil, fmt.Errorf("sched: task %d appears twice in the schedule", id)
			}
			proc[id] = p
			covered++
		}
	}
	if covered != nt {
		return nil, fmt.Errorf("sched: schedule covers %d of %d tasks", covered, nt)
	}

	res := &SimResult{
		Start:    make([]float64, nt),
		Finish:   make([]float64, nt),
		Proc:     proc,
		ProcBusy: make([]float64, m.Procs),
	}
	pending := g.InDegrees()
	arrive := make([]float64, nt) // latest arrival from an executed predecessor
	procFree := make([]float64, m.Procs)
	pos := make([]int, m.Procs)
	for done := 0; done < nt; {
		before := done
		for p, seq := range seqs {
			for pos[p] < len(seq) && pending[seq[pos[p]]] == 0 {
				id := int(seq[pos[p]])
				pos[p]++
				done++
				start := max(procFree[p], arrive[id])
				finish := start + times[id]
				res.Start[id] = start
				res.Finish[id] = finish
				res.ProcBusy[p] += times[id]
				procFree[p] = finish
				res.Makespan = max(res.Makespan, finish)
				for _, s := range g.Succ[id] {
					t := finish
					if proc[s] != p {
						t += m.edgeComm(id, int(s), words)
						res.CommEvents++
					}
					arrive[s] = max(arrive[s], t)
					pending[s]--
				}
			}
		}
		if done == before {
			return nil, fmt.Errorf("sched: schedule deadlocks with %d of %d tasks done", done, nt)
		}
	}
	return res, nil
}

// edgeComm is the message cost of dependence edge from → to when its
// endpoints run on different processors.
func (m Machine) edgeComm(from, to int, words func(from, to int) float64) float64 {
	comm := m.Latency
	if words != nil {
		comm += m.InvBandwidth * words(from, to)
	}
	return comm
}

// PanelWords returns a words function for Simulate and Replay: a panel
// broadcast F(k) → U(k, j) carries the factored panel of block column k
// (L and U parts), any other edge a small pivot/ordering message.
func PanelWords(g *taskgraph.Graph, cm *taskgraph.CostModel) func(from, to int) float64 {
	return func(from, to int) float64 {
		t := g.Tasks[from]
		if t.Kind != taskgraph.Factor {
			return float64(cm.Width[g.Tasks[from].K]) // small pivot/ordering message
		}
		k := t.K
		return float64(cm.PanelHeight[k] * cm.Width[k])
	}
}

// priorityQueue is the planner's ready set, a container/heap of task
// ids: highest priority first, ties by ascending id. The order is total,
// so the pop sequence does not depend on the heap's internal layout.
type priorityQueue struct {
	ids  []int
	prio []float64
}

func (q *priorityQueue) Len() int { return len(q.ids) }
func (q *priorityQueue) Less(i, j int) bool {
	a, b := q.ids[i], q.ids[j]
	if q.prio[a] != q.prio[b] {
		return q.prio[a] > q.prio[b]
	}
	return a < b
}
func (q *priorityQueue) Swap(i, j int) { q.ids[i], q.ids[j] = q.ids[j], q.ids[i] }
func (q *priorityQueue) Push(x any)    { q.ids = append(q.ids, x.(int)) }
func (q *priorityQueue) Pop() any {
	last := len(q.ids) - 1
	id := q.ids[last]
	q.ids = q.ids[:last]
	return id
}
