package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/solver"
)

func TestPoolRunsJobsAndCounts(t *testing.T) {
	p := newPool(2)
	defer p.close()
	for i := 0; i < 5; i++ {
		rep, err := p.do(context.Background(), func() (solver.WireReport, error) {
			return solver.WireReport{Solver: "test", Makespan: int64(i)}, nil
		})
		if err != nil || rep.Makespan != int64(i) {
			t.Fatalf("job %d = (%+v, %v)", i, rep, err)
		}
	}
	st := p.stats()
	if st.Workers != 2 || st.Jobs != 5 {
		t.Fatalf("stats = %+v; want 2 workers, 5 jobs", st)
	}
}

func TestPoolAdmissionHonorsContext(t *testing.T) {
	p := newPool(1)
	defer p.close()
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = p.do(context.Background(), func() (solver.WireReport, error) {
			close(started)
			<-gate
			return solver.WireReport{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.do(ctx, func() (solver.WireReport, error) {
		t.Error("job ran despite canceled admission")
		return solver.WireReport{}, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled while queued", err)
	}
	close(gate)
}

func TestPoolRecoversSolvePanics(t *testing.T) {
	p := newPool(1)
	_, err := p.do(context.Background(), func() (solver.WireReport, error) {
		panic("solver bug")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "solver bug") {
		t.Fatalf("err = %v; want the panic converted to an error", err)
	}
	// The panicking solve must have released the only slot; a leaked one
	// would leave this call waiting until its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := p.do(ctx, func() (solver.WireReport, error) {
		return solver.WireReport{Solver: "test", Makespan: 4, Complete: true}, nil
	})
	if err != nil || rep.Makespan != 4 {
		t.Fatalf("post-panic job = (%+v, %v); the slot must be free again", rep, err)
	}
	p.close() // not deferred: with a leaked slot it would never return
}

// panicSolver is a registered solver whose every solve panics.
type panicSolver struct{}

func (panicSolver) Name() string              { return "test-service-panic" }
func (panicSolver) Capabilities() solver.Caps { return solver.Caps{Budget: true, Target: true} }
func (panicSolver) Solve(context.Context, *core.Compiled, solver.Options) (*solver.Report, error) {
	panic("test-service-panic: injected")
}

var panicSolverOnce sync.Once

// TestSolvePanicAnswers500 drives a panicking solver through the HTTP
// path: the request fails with 500 internal (a server bug, not a bad
// request) and the server keeps serving.
func TestSolvePanicAnswers500(t *testing.T) {
	panicSolverOnce.Do(func() { solver.Register(panicSolver{}) })
	_, ts := newTestServer(t, Config{Workers: 1})
	body := strings.Replace(bridgeBody(`{"budget":3}`), `"solver":"exact"`, `"solver":"test-service-panic"`, 1)
	var e errorResponse
	if status := postSolve(t, ts, body, &e); status != http.StatusInternalServerError || e.Error.Code != "internal" {
		t.Fatalf("panicking solve answered %d %q; want 500 internal", status, e.Error.Code)
	}
	var resp SolveResponse
	if status := postSolve(t, ts, bridgeBody(`{"budget":3}`), &resp); status != http.StatusOK || resp.Report == nil {
		t.Fatalf("next solve answered %d (%s); want 200 with a report", status, resp.Error)
	}
}
