package solver

import (
	"context"
	"sync"
	"testing"

	"repro/internal/duration"
)

// collector gathers ProgressEvents under a lock: solvers may deliver from
// worker goroutines.
type collector struct {
	mu     sync.Mutex
	events []ProgressEvent
}

func (c *collector) fn(ev ProgressEvent) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

func (c *collector) snapshot() []ProgressEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ProgressEvent(nil), c.events...)
}

// TestExactProgressTrajectory checks the exact search's anytime stream:
// a bound-established event arrives before any incumbent, delivered
// incumbents strictly decrease, bounds never decrease, and the final
// event agrees with the returned report.
func TestExactProgressTrajectory(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	var col collector
	rep, err := solveInst(context.Background(), "exact", inst, WithBudget(4), WithProgress(col.fn))
	if err != nil {
		t.Fatal(err)
	}
	events := col.snapshot()
	if len(events) < 2 {
		t.Fatalf("got %d progress events, want at least the bound event and one incumbent", len(events))
	}
	if events[0].Incumbent != -1 {
		t.Fatalf("first event has incumbent %v, want -1 (bound established before any solution)", events[0].Incumbent)
	}
	if events[0].Bound <= 0 {
		t.Fatalf("first event has bound %v, want a positive makespan floor", events[0].Bound)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Incumbent >= events[i-1].Incumbent && events[i-1].Incumbent != -1 {
			t.Fatalf("incumbent did not strictly decrease: events[%d]=%v events[%d]=%v", i-1, events[i-1], i, events[i])
		}
		if events[i].Bound < events[i-1].Bound {
			t.Fatalf("bound decreased: events[%d]=%v events[%d]=%v", i-1, events[i-1], i, events[i])
		}
	}
	last := events[len(events)-1]
	if got, want := last.Incumbent, float64(rep.Sol.Makespan); got != want {
		t.Fatalf("final event incumbent %v, want the report's makespan %v", got, want)
	}
	if last.Incumbent < last.Bound {
		t.Fatalf("final incumbent %v below the certified bound %v", last.Incumbent, last.Bound)
	}
}

// TestFrankWolfeProgressTrajectory checks the relaxation's stream: the
// objective never increases, the certified bound never decreases, and the
// gap at the final event is no wider than at the first.
func TestFrankWolfeProgressTrajectory(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	var col collector
	if _, err := solveInst(context.Background(), "frankwolfe", inst, WithBudget(4), WithProgress(col.fn)); err != nil {
		t.Fatal(err)
	}
	events := col.snapshot()
	if len(events) == 0 {
		t.Fatal("frankwolfe delivered no progress events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Incumbent > events[i-1].Incumbent {
			t.Fatalf("objective increased: events[%d]=%v events[%d]=%v", i-1, events[i-1], i, events[i])
		}
		if events[i].Bound < events[i-1].Bound {
			t.Fatalf("bound decreased: events[%d]=%v events[%d]=%v", i-1, events[i-1], i, events[i])
		}
	}
	first, last := events[0], events[len(events)-1]
	if last.Incumbent-last.Bound > first.Incumbent-first.Bound {
		t.Fatalf("gap widened from %v to %v", first.Incumbent-first.Bound, last.Incumbent-last.Bound)
	}
}

// TestMinResourceFrankWolfeStaysSilent pins that target-mode frankwolfe
// emits nothing: its binary-search probes run at many budgets whose
// interleaved trajectories would not be monotone.
func TestMinResourceFrankWolfeStaysSilent(t *testing.T) {
	inst := bridgeInstance(t, func() duration.Func { return stepFunc(t) })
	var col collector
	if _, err := solveInst(context.Background(), "frankwolfe", inst, WithTarget(10), WithProgress(col.fn)); err != nil {
		t.Fatal(err)
	}
	if events := col.snapshot(); len(events) != 0 {
		t.Fatalf("target-mode frankwolfe delivered %d events, want 0: %v", len(events), events)
	}
}
