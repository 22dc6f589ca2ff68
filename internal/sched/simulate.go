package sched

import (
	"fmt"
	"math"

	"repro/internal/taskgraph"
)

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

// Simulate performs deterministic greedy list scheduling of the task
// graph on the machine: each task runs on the processor owning its
// destination block column, tasks become ready when all predecessors
// have finished (plus message time for cross-processor edges), and each
// processor picks the ready task with the highest priority (descending
// bottom level computed from the flop costs). commWords(from, to)
// returns the message volume in words of a cross-processor edge.
func Simulate(g *taskgraph.Graph, cm *taskgraph.CostModel, owner Assignment, m Machine, commWords func(from, to int) float64) (*SimResult, error) {
	return SimulateOwners(g, cm, TaskOwners(g, owner), m, commWords)
}

// TaskOwners2D maps tasks onto a pr×pc processor grid, the 2-D
// decomposition the paper names as future work: Factor(k) runs on
// grid(k mod pr, k mod pc) and Update(k, j) on grid(k mod pr, j mod pc),
// so a panel row is shared by one grid row and a destination column by
// one grid column.
func TaskOwners2D(g *taskgraph.Graph, pr, pc int) []int {
	out := make([]int, g.NumTasks())
	for id, t := range g.Tasks {
		r := t.K % pr
		c := t.K % pc
		if t.Kind == taskgraph.Update {
			c = t.J % pc
		}
		out[id] = r*pc + c
	}
	return out
}

// SimulateOwners is Simulate with an explicit per-task processor
// assignment (e.g. from TaskOwners2D).
func SimulateOwners(g *taskgraph.Graph, cm *taskgraph.CostModel, taskOwner []int, m Machine, commWords func(from, to int) float64) (*SimResult, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	nt := g.NumTasks()
	taskTime := m.taskSeconds(cm.TaskFlops)
	prio, err := g.BottomLevels(taskTime)
	if err != nil {
		return nil, err
	}

	indeg := g.InDegrees()
	ready := make([]float64, nt) // earliest data-ready time
	res := &SimResult{
		Start:    make([]float64, nt),
		Finish:   make([]float64, nt),
		Proc:     taskOwner,
		ProcBusy: make([]float64, m.Procs),
	}
	procFree := make([]float64, m.Procs)
	queues := make([]priorityQueue, m.Procs)
	for p := range queues {
		queues[p].prio = prio
	}
	for id, d := range indeg {
		if d == 0 {
			heapPush(&queues[taskOwner[id]], id)
		}
	}

	scheduled := 0
	for scheduled < nt {
		// Pick the (proc, task) pair with the earliest feasible start;
		// ties go to higher priority, then lower task id.
		bestProc, bestID := -1, -1
		bestStart := math.Inf(1)
		for p := range queues {
			if queues[p].Len() == 0 {
				continue
			}
			id := queues[p].ids[0]
			start := procFree[p]
			if ready[id] > start {
				start = ready[id]
			}
			if start < bestStart ||
				(start == bestStart && (bestID == -1 || prio[id] > prio[bestID] ||
					(prio[id] == prio[bestID] && id < bestID))) {
				bestProc, bestID, bestStart = p, id, start
			}
		}
		if bestID == -1 {
			return nil, fmt.Errorf("sched: no ready task with %d of %d scheduled (cycle?)", scheduled, nt)
		}
		heapPopID(&queues[bestProc])
		finish := bestStart + taskTime[bestID]
		res.Start[bestID] = bestStart
		res.Finish[bestID] = finish
		res.ProcBusy[bestProc] += taskTime[bestID]
		procFree[bestProc] = finish
		if finish > res.Makespan {
			res.Makespan = finish
		}
		scheduled++
		for _, s := range g.Succ[bestID] {
			arrive := finish
			if taskOwner[s] != bestProc {
				arrive += m.edgeComm(bestID, int(s), commWords)
			}
			if arrive > ready[s] {
				ready[s] = arrive
			}
			indeg[s]--
			if indeg[s] == 0 {
				heapPush(&queues[taskOwner[s]], int(s))
			}
		}
	}
	res.countCommEvents(g)
	return res, nil
}

// arrival is one satisfied dependence of a task whose processor is not
// fixed in advance: the predecessor's finish time and processor, and the
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

// edgeComm is the message cost of dependence edge from → to when its
// endpoints run on different processors.
func (m Machine) edgeComm(from, to int, commWords func(from, to int) float64) float64 {
	comm := m.Latency
	if commWords != nil {
		comm += m.InvBandwidth * commWords(from, to)
	}
	return comm
}

// SimulateGlobal performs deterministic task-level list scheduling of
// the graph on the machine — the paper's runtime (RAPID on the
// cache-coherent Origin 2000) schedules tasks, not block columns, which
// is what exposes the parallelism the eforest-guided graph adds over
// S*: ready tasks are taken in descending bottom-level priority and
// placed on the processor that can start them earliest.
func SimulateGlobal(g *taskgraph.Graph, cm *taskgraph.CostModel, m Machine, commWords func(from, to int) float64) (*SimResult, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	nt := g.NumTasks()
	taskTime := m.taskSeconds(cm.TaskFlops)
	prio, err := g.BottomLevels(taskTime)
	if err != nil {
		return nil, err
	}
	indeg := g.InDegrees()
	arrivals := make([][]arrival, nt)

	res := &SimResult{
		Start:    make([]float64, nt),
		Finish:   make([]float64, nt),
		Proc:     make([]int, nt),
		ProcBusy: make([]float64, m.Procs),
	}
	procFree := make([]float64, m.Procs)

	ready := priorityQueue{prio: prio}
	for id, d := range indeg {
		if d == 0 {
			heapPush(&ready, id)
		}
	}

	for scheduled := 0; scheduled < nt; scheduled++ {
		if ready.Len() == 0 {
			return nil, fmt.Errorf("sched: no ready task (cycle?)")
		}
		id := heapPopID(&ready)
		// Choose the processor with the earliest feasible start.
		bestP, bestStart := 0, 0.0
		for p := 0; p < m.Procs; p++ {
			start := earliestStart(arrivals[id], p, procFree[p])
			if p == 0 || start < bestStart {
				bestP, bestStart = p, start
			}
		}
		finish := bestStart + taskTime[id]
		res.Start[id] = bestStart
		res.Finish[id] = finish
		res.Proc[id] = bestP
		res.ProcBusy[bestP] += taskTime[id]
		procFree[bestP] = finish
		if finish > res.Makespan {
			res.Makespan = finish
		}
		for _, s := range g.Succ[id] {
			arrivals[s] = append(arrivals[s], arrival{finish: finish, proc: bestP, comm: m.edgeComm(id, int(s), commWords)})
			indeg[s]--
			if indeg[s] == 0 {
				heapPush(&ready, int(s))
			}
		}
	}
	res.countCommEvents(g)
	return res, nil
}

// countCommEvents sets CommEvents to the number of dependence edges
// whose endpoints ran on different processors.
func (r *SimResult) countCommEvents(g *taskgraph.Graph) {
	for id := range g.Succ {
		for _, s := range g.Succ[id] {
			if r.Proc[id] != r.Proc[s] {
				r.CommEvents++
			}
		}
	}
}

// PanelWords returns a commWords function for the 1-D mapping: the only
// cross-processor edges are panel broadcasts F(k) → U(k, j), carrying
// the factored panel of block column k (L and U parts).
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

func heapPush(q *priorityQueue, id int) {
	q.ids = append(q.ids, id)
	// sift up
	i := len(q.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q.Less(i, parent) {
			q.Swap(i, parent)
			i = parent
		} else {
			break
		}
	}
}

func heapPopID(q *priorityQueue) int {
	id := q.ids[0]
	last := len(q.ids) - 1
	q.ids[0] = q.ids[last]
	q.ids = q.ids[:last]
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.ids) && q.Less(l, small) {
			small = l
		}
		if r < len(q.ids) && q.Less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q.Swap(i, small)
		i = small
	}
	return id
}
