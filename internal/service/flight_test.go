package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/solver"
)

// slowSpdpBody is a deadline-free spdp request on two parallel jobs: the
// DP's split scan is quadratic in the budget, so the solve takes about
// 0.2 s at 2^14 and 4 s at 2^16 on a 2-vCPU VM, and it polls its context
// every 1,024 rows.
func slowSpdpBody(budget int64) string {
	return fmt.Sprintf(`{"solver":"spdp","options":{"budget":%d},"instance":{"nodes":["s","t"],
		"edges":[{"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":9},{"r":2,"t":3}]}},
		         {"from":0,"to":1,"fn":{"kind":"step","tuples":[{"r":0,"t":7},{"r":1,"t":4}]}}]}}`, budget)
}

// postSolveCtx posts body to /v1/solve under ctx and returns the status
// and the raw response body; a request canceled by ctx returns the error.
func postSolveCtx(ctx context.Context, url, body string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// waitFor polls cond every millisecond until it holds or d passes, and
// reports whether it held.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// settleGoroutines waits for the goroutine count to fall back to base,
// failing t with a dump of the survivors if it does not within 2 s.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	if !waitFor(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
	}
}

// TestAbandonedFlightStopsSolve pins that a deadline-free solve stops
// once its only waiter has gone: the client hangs up 50 ms into a
// seconds-long spdp solve, and the pool job ends within about a second
// with nothing cached and no goroutine left behind.
func TestAbandonedFlightStopsSolve(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := postSolveCtx(ctx, ts.URL, slowSpdpBody(1<<16))
		errc <- err
	}()
	if !waitFor(5*time.Second, func() bool { return svc.cache.stats().Misses == 1 }) {
		t.Fatal("the solve never started")
	}
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v; want context.Canceled", err)
	}
	canceled := time.Now()
	if !waitFor(time.Second, func() bool { return svc.pool.stats().Jobs == 1 }) {
		t.Fatalf("pool job still running %v after its last waiter left", time.Since(canceled))
	}
	if n := svc.cache.stats().Size; n != 0 {
		t.Fatalf("the abandoned solve left %d cache entries; an interrupted result must not be cached", n)
	}
	settleGoroutines(t, base)
}

// TestFlightSurvivesOneWaiterLeaving pins the other half: with two
// waiters on one flight, the leader's client leaving does not cut the
// solve short, and the remaining waiter gets the complete answer, byte
// for byte what an undisturbed solve returns apart from its wall time.
func TestFlightSurvivesOneWaiterLeaving(t *testing.T) {
	body := slowSpdpBody(1 << 14)
	var want SolveResponse
	_, refTS := newTestServer(t, Config{Workers: 1})
	if status := postSolve(t, refTS, body, &want); status != http.StatusOK || want.Report == nil || !want.Report.Complete {
		t.Fatalf("reference solve: status %d, %+v", status, want)
	}

	svc, ts := newTestServer(t, Config{Workers: 1})
	base := runtime.NumGoroutine()
	leaderCtx, leave := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := postSolveCtx(leaderCtx, ts.URL, body)
		leaderErr <- err
	}()
	if !waitFor(5*time.Second, func() bool { return svc.cache.stats().Misses == 1 }) {
		t.Fatal("the leader's solve never started")
	}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	joined := make(chan answer, 1)
	go func() {
		status, b, err := postSolveCtx(context.Background(), ts.URL, body)
		joined <- answer{status, b, err}
	}()
	if !waitFor(5*time.Second, func() bool { return svc.cache.stats().Coalesced == 1 }) {
		t.Fatal("the second request never joined the flight")
	}
	leave()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v; want context.Canceled", err)
	}

	a := <-joined
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("remaining waiter: status %d, err %v, body %s", a.status, a.err, a.body)
	}
	var got SolveResponse
	if err := json.Unmarshal(a.body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Report == nil || !got.Report.Complete {
		t.Fatalf("remaining waiter got %+v; want the flight's complete, coalesced report", got)
	}
	got.Report.WallMS, want.Report.WallMS = 0, 0
	gotRep, err := json.Marshal(got.Report)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := json.Marshal(want.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotRep, wantRep) {
		t.Fatalf("report differs from an undisturbed solve:\n%s\n%s", gotRep, wantRep)
	}
	if st := svc.pool.stats(); st.Jobs != 1 {
		t.Fatalf("pool ran %d solves; want the one flight", st.Jobs)
	}
	settleGoroutines(t, base)
}

// TestAbandonedFlightIsUnlisted pins, at the cache, that the last waiter
// leaving both cancels the flight's compute and unlists the flight, so
// an identical request arriving while the old compute winds down leads
// a flight of its own, and the interrupted result is never cached.
func TestAbandonedFlightIsUnlisted(t *testing.T) {
	c := newResultCache(4)
	ctx, leave := context.WithCancel(context.Background())
	canceled := make(chan struct{})
	winding := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, _, err := c.do(ctx, "k", true, func(solveCtx context.Context) (flightResult, error) {
			<-solveCtx.Done()
			close(canceled)
			<-winding
			return flightResult{rep: solver.WireReport{Solver: "test"}}, solveCtx.Err()
		})
		first <- err
	}()
	leave()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("the flight's compute was not canceled when its only waiter left")
	}
	// The old compute is still running (blocked on winding), yet a new
	// identical request must lead, not join.
	rep, cached, err := doLocal(c, context.Background(), "k", true, func() (solver.WireReport, error) {
		return completeReport(4), nil
	})
	if err != nil || cached || rep.Makespan != 4 {
		t.Fatalf("request after the flight was abandoned = (%+v, cached %v, %v); want a fresh flight", rep, cached, err)
	}
	close(winding)
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned compute err = %v; want context.Canceled", err)
	}
	if st := c.stats(); st.Coalesced != 0 || st.Misses != 2 || st.Size != 1 {
		t.Fatalf("stats = %+v; want 2 flights, none coalesced, only the complete result stored", st)
	}
	if rep, cached, _ := doLocal(c, context.Background(), "k", true, nil); !cached || rep.Makespan != 4 {
		t.Fatalf("cached entry = (%+v, %v); the interrupted result must not replace the complete one", rep, cached)
	}
}

// TestJobDeleteStopsSolve pins that DELETE on a running job stops its
// solve: the job is the flight's only waiter.
func TestJobDeleteStopsSolve(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	base := runtime.NumGoroutine()
	acc := postJob(t, ts, slowSpdpBody(1<<16))
	if !waitFor(5*time.Second, func() bool { return svc.cache.stats().Misses == 1 }) {
		t.Fatal("the job's solve never started")
	}
	time.Sleep(50 * time.Millisecond)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deleted := time.Now()
	if !waitFor(time.Second, func() bool { return svc.pool.stats().Jobs == 1 }) {
		t.Fatalf("job's solve still running %v after DELETE", time.Since(deleted))
	}
	if st := pollJob(t, ts, acc.ID); st.State != JobCanceled {
		t.Fatalf("deleted job finished %s, want canceled", st.State)
	}
	settleGoroutines(t, base)
}
