package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// sweepOrder returns the block columns a sweep visits, in order.
func sweepOrder(nb int, descending bool) []int {
	ks := make([]int, nb)
	for i := range ks {
		ks[i] = i
		if descending {
			ks[i] = nb - 1 - i
		}
	}
	return ks
}

// TestSweepCancelMidway cancels the context from inside the step of
// column nb/2: that column finishes, the next poll stops the sweep, and
// the *sched.CancelError counts the nb/2+1 columns that ran.
func TestSweepCancelMidway(t *testing.T) {
	const nb = 9
	cause := errors.New("caller gave up")
	for _, descending := range []bool{false, true} {
		ctx, cancel := context.WithCancelCause(context.Background())
		var ran []int
		err := sweep(ctx, nb, descending, nil, trace.KindSolveL, func(k int) {
			ran = append(ran, k)
			if k == nb/2 {
				cancel(cause)
			}
		})
		var ce *sched.CancelError
		if !errors.As(err, &ce) || ce.Completed != nb/2+1 || ce.Total != nb {
			t.Fatalf("descending=%v: err = %v, want a CancelError with %d of %d completed", descending, err, nb/2+1, nb)
		}
		if !errors.Is(err, cause) || !errors.Is(err, sched.ErrCanceled) {
			t.Fatalf("descending=%v: err = %v does not match its cause and ErrCanceled", descending, err)
		}
		if want := sweepOrder(nb, descending)[:nb/2+1]; !reflect.DeepEqual(ran, want) {
			t.Fatalf("descending=%v: ran columns %v, want %v", descending, ran, want)
		}
	}
}

// TestSweepCancelDuringLastColumn cancels the context inside the last
// column's step: the sweep is complete, so the finished work wins and
// the sweep returns nil.
func TestSweepCancelDuringLastColumn(t *testing.T) {
	const nb = 6
	for _, descending := range []bool{false, true} {
		order := sweepOrder(nb, descending)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var ran []int
		err := sweep(ctx, nb, descending, nil, trace.KindSolveU, func(k int) {
			ran = append(ran, k)
			if k == order[nb-1] {
				cancel()
			}
		})
		if err != nil {
			t.Fatalf("descending=%v: err = %v, want nil", descending, err)
		}
		if !reflect.DeepEqual(ran, order) {
			t.Fatalf("descending=%v: ran columns %v, want %v", descending, ran, order)
		}
	}
}

// TestSweepRecordsOneEventPerColumn checks the traced sweep: one event
// of the sweep's kind per column, on worker 0.
func TestSweepRecordsOneEventPerColumn(t *testing.T) {
	const nb = 5
	rec := trace.New(1)
	if err := sweep(context.Background(), nb, true, rec, trace.KindSolveU, func(int) {}); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) != nb {
		t.Fatalf("%d events, want %d", len(evs), nb)
	}
	seen := make([]bool, nb)
	for _, e := range evs {
		if e.Kind != trace.KindSolveU || e.Worker != 0 || e.Task != trace.NoTask || e.Col < 0 || int(e.Col) >= nb || seen[e.Col] {
			t.Fatalf("event %+v: want one KindSolveU event per column on worker 0", e)
		}
		seen[e.Col] = true
	}
}
