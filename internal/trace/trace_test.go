package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/taskgraph"
)

// diamond is the 4-task DAG 0 → {1, 2} → 3.
func diamond() [][]int32 {
	return [][]int32{{1, 2}, {3}, {3}, nil}
}

func TestRecorderCollectsAndMerges(t *testing.T) {
	r := New(2)
	if r.Workers() != 2 {
		t.Fatalf("Workers() = %d", r.Workers())
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				start := r.Now()
				r.Record(w, w*3+i, KindUpdate, w, start)
			}
		}(w)
	}
	wg.Wait()
	events := r.Events()
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i, e := range events {
		if e.End < e.Start {
			t.Fatalf("event %d ends before it starts", i)
		}
		if i > 0 && e.Start < events[i-1].Start {
			t.Fatalf("events not sorted by start at %d", i)
		}
	}
	r.Reset()
	if n := len(r.Events()); n != 0 {
		t.Fatalf("Reset left %d events", n)
	}
}

func TestRecorderRejectsBadWorker(t *testing.T) {
	r := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range worker id not rejected")
		}
	}()
	r.Record(3, 0, KindFactor, 0, 0)
}

func TestSummarize(t *testing.T) {
	// Hand-built schedule on 2 workers over a window of 100 ns:
	//   worker 0: [0,40) factor, [60,100) update  -> busy 80
	//   worker 1: [10,40) update                  -> busy 30
	events := []Event{
		{Start: 0, End: 40, Task: 0, Worker: 0, Kind: KindFactor},
		{Start: 10, End: 40, Task: 1, Worker: 1, Kind: KindUpdate},
		{Start: 60, End: 100, Task: 2, Worker: 0, Kind: KindUpdate},
	}
	s := Summarize(events, 2)
	if s.Makespan != 100 {
		t.Fatalf("makespan = %d, want 100", s.Makespan)
	}
	if s.TotalBusy != 110 {
		t.Fatalf("total busy = %d, want 110", s.TotalBusy)
	}
	if s.Parallelism != 1.1 {
		t.Fatalf("parallelism = %g, want 1.1", s.Parallelism)
	}
	w0, w1 := s.WorkerStats[0], s.WorkerStats[1]
	if w0.Busy != 80 || w0.Idle != 20 || w0.LongestIdle != 20 {
		t.Fatalf("worker 0 stats = %+v", w0)
	}
	if w1.Busy != 30 || w1.Idle != 70 || w1.LongestIdle != 60 {
		t.Fatalf("worker 1 stats = %+v", w1)
	}
	if w0.Utilization != 0.8 || w1.Utilization != 0.3 {
		t.Fatalf("utilization = %g, %g", w0.Utilization, w1.Utilization)
	}
	if len(s.KindStats) != 2 {
		t.Fatalf("kind stats = %+v", s.KindStats)
	}
	for _, ks := range s.KindStats {
		switch ks.Kind {
		case KindFactor:
			if ks.Count != 1 || ks.Total != 40 || ks.Min != 40 || ks.Max != 40 {
				t.Fatalf("factor stats = %+v", ks)
			}
		case KindUpdate:
			if ks.Count != 2 || ks.Total != 70 || ks.Min != 30 || ks.Max != 40 {
				t.Fatalf("update stats = %+v", ks)
			}
		}
	}
	// Histogram: 40 ns lands in bucket 5 ([32,64)), 30 in bucket 4.
	for _, ks := range s.KindStats {
		if ks.Kind == KindUpdate {
			if ks.Hist[5] != 1 || ks.Hist[4] != 1 {
				t.Fatalf("update histogram = %v", ks.Hist)
			}
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil, 3)
	if s.Makespan != 0 || s.Parallelism != 0 || len(s.WorkerStats) != 3 {
		t.Fatalf("empty summary = %+v", s)
	}
}

// TestTaskDurationsCriticalPath sums a hand schedule of the diamond into
// per-task durations and walks them with taskgraph's CriticalPathTasks,
// the pair splu -trace reports the realized critical path with.
func TestTaskDurationsCriticalPath(t *testing.T) {
	g := &taskgraph.Graph{Tasks: make([]taskgraph.Task, 4), Succ: diamond()}
	events := []Event{
		{Start: 0, End: 10, Task: 0, Worker: 0},
		{Start: 10, End: 15, Task: 1, Worker: 0},
		{Start: 10, End: 30, Task: 2, Worker: 1},
		{Start: 30, End: 40, Task: 2, Worker: 1}, // a second event of task 2
		{Start: 40, End: 47, Task: 3, Worker: 0},
	}
	dur := TaskDurations(events, len(g.Tasks))
	if got := fmt.Sprint(dur); got != "[10 5 30 7]" {
		t.Fatalf("task durations = %s, want [10 5 30 7]", got)
	}
	path, cp, err := g.CriticalPathTasks(dur)
	if err != nil {
		t.Fatal(err)
	}
	if cp != 47 { // 10 + 30 + 7 through 0 → 2 → 3
		t.Fatalf("realized critical path = %g, want 47", cp)
	}
	if got := fmt.Sprint(path); got != "[0 2 3]" {
		t.Fatalf("path = %s, want [0 2 3]", got)
	}
	// A scale event (Task = NoTask) and an event of a task outside the
	// graph must be ignored.
	events = append(events,
		Event{Start: 0, End: 1000, Task: NoTask, Kind: KindScale},
		Event{Start: 0, End: 1000, Task: 4})
	if got := fmt.Sprint(TaskDurations(events, len(g.Tasks))); got != fmt.Sprint(dur) {
		t.Fatalf("task durations with stray events = %s, want %v", got, dur)
	}
}

func TestWorkerSequences(t *testing.T) {
	events := []Event{
		{Start: 0, End: 10, Task: 0, Worker: 0},
		{Start: 5, End: 6, Task: NoTask, Worker: 1, Kind: KindScale},
		{Start: 10, End: 15, Task: 1, Worker: 0},
		{Start: 10, End: 40, Task: 2, Worker: 1},
		{Start: 40, End: 47, Task: 3, Worker: 0},
		{Start: 50, End: 51, Task: 4, Worker: 2},
	}
	seqs := WorkerSequences(events, 2)
	if got := fmt.Sprint(seqs); got != "[[0 1 3] [2]]" {
		t.Fatalf("sequences = %s", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := []Event{
		{Start: 0, End: 1500, Task: 0, Col: 0, Worker: 0, Kind: KindFactor},
		{Start: 1500, End: 2500, Task: 1, Col: 2, Worker: 1, Kind: KindUpdate},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, 2, nil); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name metadata + 2 task events.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5", len(out.TraceEvents))
	}
	var tasks int
	for _, e := range out.TraceEvents {
		switch e["ph"] {
		case "X":
			tasks++
			if e["ts"].(float64) < 0 || e["dur"].(float64) <= 0 {
				t.Fatalf("bad complete event: %v", e)
			}
		case "M":
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if tasks != 2 {
		t.Fatalf("got %d complete events, want 2", tasks)
	}
}
