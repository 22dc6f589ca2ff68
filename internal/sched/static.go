package sched

import (
	"fmt"
	"sort"

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
// SimulateStatic models this: phase 1 builds the static schedule with
// the estimated costs (task-level HLF, identical policy for both graph
// variants); phase 2 executes the fixed per-processor sequences with
// deterministically perturbed task times. Both variants see the *same*
// perturbed time for the same task, so the comparison isolates the
// dependence structure.

// Perturb controls the execution-time deviation model of
// SimulateStatic.
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

// SimulateStatic builds a static task-level schedule from the cost
// model, then simulates its in-order execution under the perturbed task
// times. Returns the executed schedule.
func SimulateStatic(g *taskgraph.Graph, cm *taskgraph.CostModel, m Machine, commWords func(from, to int) float64, perturb Perturb) (*SimResult, error) {
	// Phase 1 — inspector: the static schedule is SimulateGlobal's
	// placement under the estimated costs, so both graph variants are
	// scheduled identically well. A processor runs one task at a time,
	// so its planned sequence is its tasks in start order.
	plan, err := SimulateGlobal(g, cm, m, commWords)
	if err != nil {
		return nil, err
	}
	nt := g.NumTasks()
	byStart := make([]int, nt)
	for id := range byStart {
		byStart[id] = id
	}
	sort.SliceStable(byStart, func(x, y int) bool { return plan.Start[byStart[x]] < plan.Start[byStart[y]] })
	procSeq := make([][]int, m.Procs)
	for _, id := range byStart {
		procSeq[plan.Proc[id]] = append(procSeq[plan.Proc[id]], id)
	}

	// Phase 2 — executor: run the fixed sequences with perturbed times.
	actual := m.taskSeconds(cm.TaskFlops)
	for id := range actual {
		actual[id] *= perturb.factor(id)
	}
	res := &SimResult{
		Start:    make([]float64, nt),
		Finish:   make([]float64, nt),
		Proc:     plan.Proc,
		ProcBusy: make([]float64, m.Procs),
	}
	// Event-driven in-order execution: repeatedly advance the processor
	// whose next task can start earliest.
	pos := make([]int, m.Procs)
	procFree := make([]float64, m.Procs)
	arrivals := make([][]arrival, nt)
	pending := g.InDegrees()

	for done := 0; done < nt; done++ {
		bestP := -1
		bestStart := 0.0
		for p := 0; p < m.Procs; p++ {
			if pos[p] >= len(procSeq[p]) {
				continue
			}
			id := procSeq[p][pos[p]]
			if pending[id] > 0 {
				continue // a predecessor has not even been executed yet
			}
			start := earliestStart(arrivals[id], p, procFree[p])
			if bestP == -1 || start < bestStart {
				bestP, bestStart = p, start
			}
		}
		if bestP == -1 {
			return nil, fmt.Errorf("sched: static schedule deadlocked with %d of %d done", done, nt)
		}
		id := procSeq[bestP][pos[bestP]]
		pos[bestP]++
		finish := bestStart + actual[id]
		res.Start[id] = bestStart
		res.Finish[id] = finish
		res.ProcBusy[bestP] += actual[id]
		procFree[bestP] = finish
		if finish > res.Makespan {
			res.Makespan = finish
		}
		for _, s := range g.Succ[id] {
			arrivals[s] = append(arrivals[s], arrival{finish: finish, proc: bestP, comm: m.edgeComm(id, int(s), commWords)})
			pending[s]--
		}
	}
	res.countCommEvents(g)
	return res, nil
}
