package trace

import (
	"fmt"
	"math/bits"
)

// HistBuckets is the number of log2 duration buckets of a KindStat:
// bucket b counts events with duration in [2^b, 2^(b+1)) nanoseconds
// (bucket 0 also collects sub-nanosecond durations).
const HistBuckets = 32

// WorkerStat aggregates one worker's activity over the trace window.
// Scheduler events (KindSteal, KindIdle) are not work: they contribute
// to Steals/SchedNs only, never to Tasks, Busy or Utilization.
type WorkerStat struct {
	Worker int
	// Tasks is the number of work events the worker executed.
	Tasks int
	// Busy is the summed work-event duration in nanoseconds.
	Busy int64
	// Idle is the trace window minus Busy.
	Idle int64
	// LongestIdle is the longest single gap (ns) with no work event
	// running on this worker, including the spans before its first and
	// after its last event.
	LongestIdle int64
	// Utilization is Busy divided by the trace makespan (0 when the
	// makespan is zero).
	Utilization float64
	// Steals counts the worker's successful steals (KindSteal events;
	// zero unless the recorder had scheduler events enabled).
	Steals int
	// SchedNs is the summed duration of the worker's scheduler events —
	// time spent searching for work or parked (zero unless scheduler
	// events were enabled).
	SchedNs int64
}

// KindStat aggregates the events of one task kind.
type KindStat struct {
	Kind  Kind
	Count int
	// Total, Min and Max are durations in nanoseconds.
	Total, Min, Max int64
	// Hist is the log2 duration histogram (see HistBuckets).
	Hist [HistBuckets]int
}

// Summary is the realized-schedule report of one traced execution.
type Summary struct {
	// Events is the number of recorded events.
	Events int
	// Workers is the number of workers the summary was computed for.
	Workers int
	// Makespan is the trace window in nanoseconds: latest End minus
	// earliest Start.
	Makespan int64
	// TotalBusy is the summed duration of all events.
	TotalBusy int64
	// Parallelism is TotalBusy / Makespan — the realized speedup over a
	// serial execution of the same tasks (the speedup-vs-serial of an
	// ideal serial run with identical per-task times).
	Parallelism float64
	// WorkerStats has one entry per worker.
	WorkerStats []WorkerStat
	// KindStats has one entry per kind that occurred, in Kind order.
	KindStats []KindStat
}

// Summarize computes per-worker utilization/idle spans and per-kind
// time histograms over the merged events of a run on the given number
// of workers.
func Summarize(events []Event, workers int) *Summary {
	if workers < 1 {
		workers = 1
	}
	s := &Summary{Events: len(events), Workers: workers}
	if len(events) == 0 {
		s.WorkerStats = make([]WorkerStat, workers)
		for w := range s.WorkerStats {
			s.WorkerStats[w].Worker = w
		}
		return s
	}
	// The trace window spans the work events only: a parked worker's
	// idle span is woken by the termination broadcast, so letting
	// scheduler events stretch the window would charge the engine's own
	// shutdown against utilization.
	start, end := int64(0), int64(0)
	windowSet := false
	for _, e := range events {
		if e.Kind.IsSched() {
			continue
		}
		if !windowSet || e.Start < start {
			start = e.Start
		}
		if !windowSet || e.End > end {
			end = e.End
		}
		windowSet = true
	}
	if !windowSet { // degenerate: only scheduler events recorded
		start, end = events[0].Start, events[0].End
		for _, e := range events {
			if e.Start < start {
				start = e.Start
			}
			if e.End > end {
				end = e.End
			}
		}
	}
	s.Makespan = end - start

	perWorker := make([][]Event, workers)
	kinds := make([]KindStat, numKinds)
	for k := range kinds {
		kinds[k].Kind = Kind(k)
	}
	for _, e := range events {
		if int(e.Worker) >= 0 && int(e.Worker) < workers {
			perWorker[e.Worker] = append(perWorker[e.Worker], e)
		}
		if !e.Kind.IsSched() {
			s.TotalBusy += e.Duration()
		}
		if int(e.Kind) < len(kinds) {
			ks := &kinds[e.Kind]
			d := e.Duration()
			if ks.Count == 0 || d < ks.Min {
				ks.Min = d
			}
			if d > ks.Max {
				ks.Max = d
			}
			ks.Count++
			ks.Total += d
			ks.Hist[histBucket(d)]++
		}
	}
	if s.Makespan > 0 {
		s.Parallelism = float64(s.TotalBusy) / float64(s.Makespan)
	}

	s.WorkerStats = make([]WorkerStat, workers)
	for w, evs := range perWorker {
		ws := &s.WorkerStats[w]
		ws.Worker = w
		cursor := start // end of the last busy span seen so far
		for _, e := range evs {
			if e.Kind.IsSched() {
				if e.Kind == KindSteal {
					ws.Steals++
				}
				ws.SchedNs += e.Duration()
				continue
			}
			ws.Tasks++
			ws.Busy += e.Duration()
			if gap := e.Start - cursor; gap > ws.LongestIdle {
				ws.LongestIdle = gap
			}
			if e.End > cursor {
				cursor = e.End
			}
		}
		if gap := end - cursor; gap > ws.LongestIdle {
			ws.LongestIdle = gap
		}
		ws.Idle = s.Makespan - ws.Busy
		if s.Makespan > 0 {
			ws.Utilization = float64(ws.Busy) / float64(s.Makespan)
		}
	}
	for _, ks := range kinds {
		if ks.Count > 0 {
			s.KindStats = append(s.KindStats, ks)
		}
	}
	return s
}

// histBucket maps a duration in nanoseconds to its log2 bucket.
func histBucket(d int64) int {
	if d <= 1 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// RealizedCriticalPath computes the longest dependence-weighted path
// through an executed schedule: the chain of tasks, linked by edges of
// the dependence graph succ, whose summed *realized* durations is
// maximal. It returns the path length in nanoseconds and the task ids
// along one such path in execution order (ties broken toward smaller
// task ids, deterministically). Events whose Task is NoTask or outside
// the graph are ignored; tasks with no recorded event weigh zero.
func RealizedCriticalPath(events []Event, succ [][]int32) (int64, []int32, error) {
	nt := len(succ)
	dur := make([]int64, nt)
	for _, e := range events {
		if e.Task >= 0 && int(e.Task) < nt {
			dur[e.Task] += e.Duration()
		}
	}
	order, err := topoOrder(succ)
	if err != nil {
		return 0, nil, err
	}
	finish := make([]int64, nt)
	pred := make([]int32, nt)
	for i := range pred {
		pred[i] = -1
	}
	var best int64
	bestID := int32(-1)
	for _, id := range order {
		f := finish[id] + dur[id]
		finish[id] = f
		if f > best || (f == best && (bestID == -1 || id < bestID)) {
			best, bestID = f, id
		}
		for _, s := range succ[id] {
			if f > finish[s] || (f == finish[s] && (pred[s] == -1 || id < pred[s])) {
				finish[s] = f
				pred[s] = id
			}
		}
	}
	var path []int32
	for id := bestID; id != -1; id = pred[id] {
		path = append(path, id)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return best, path, nil
}

// WorkerSequences splits the merged events into per-worker task id
// sequences in start order, skipping events without a task id. The
// result is the realized static schedule of the run, replayable with
// sched.Replay.
func WorkerSequences(events []Event, workers int) [][]int32 {
	if workers < 1 {
		workers = 1
	}
	seqs := make([][]int32, workers)
	for _, e := range events { // events are sorted by start time
		if e.Task < 0 || int(e.Worker) < 0 || int(e.Worker) >= workers {
			continue
		}
		seqs[e.Worker] = append(seqs[e.Worker], e.Task)
	}
	return seqs
}

// topoOrder is Kahn's algorithm over the successor lists.
func topoOrder(succ [][]int32) ([]int32, error) {
	nt := len(succ)
	indeg := make([]int, nt)
	for _, ss := range succ {
		for _, s := range ss {
			indeg[s]++
		}
	}
	queue := make([]int32, 0, nt)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(id))
		}
	}
	order := make([]int32, 0, nt)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != nt {
		return nil, fmt.Errorf("trace: dependence graph has a cycle (%d of %d ordered)", len(order), nt)
	}
	return order, nil
}
