package service

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/solver"
)

// postJob submits body to /v1/jobs and decodes the 202 envelope.
func postJob(t *testing.T, ts *httptest.Server, body string) JobAccepted {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/jobs: status %d (%s: %s), want 202", resp.StatusCode, e.Error.Code, e.Error.Message)
	}
	var acc JobAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// pollJob polls the job until it leaves the live states or the deadline
// passes, returning the final status.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobQueued && st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sseEvents reads one whole SSE stream, returning the progress events and
// the final done payload.
func sseEvents(t *testing.T, body *bufio.Reader) (events []JobEvent, done *JobStatus) {
	t.Helper()
	var event, data string
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return events, done
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "progress":
				var ev JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad progress frame %q: %v", data, err)
				}
				events = append(events, ev)
			case "done":
				var st JobStatus
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("bad done frame %q: %v", data, err)
				}
				done = &st
				return events, done
			}
			event, data = "", ""
		}
	}
}

// jobBody renders a solve-job request body for the given generator seed.
func jobBody(t *testing.T, seed int64, extra string) string {
	t.Helper()
	req := marshalRequest(t, scenario.NewGen(seed).RequestStream(1, 1)[0])
	req.Solver = "exact"
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if extra == "" {
		return string(body)
	}
	return strings.TrimSuffix(string(body), "}") + "," + extra + "}"
}

// TestJobLifecycle submits an async solve, streams its trajectory, and
// checks the final result is byte-identical to the synchronous answer.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := jobBody(t, 31, "")

	acc := postJob(t, ts, body)
	if acc.ID == "" || acc.StatusURL != "/v1/jobs/"+acc.ID || acc.EventsURL != "/v1/jobs/"+acc.ID+"/events" {
		t.Fatalf("bad acceptance envelope: %+v", acc)
	}
	st := pollJob(t, ts, acc.ID)
	if st.State != JobSucceeded {
		t.Fatalf("job finished %s, want succeeded: %+v", st.State, st)
	}
	if st.Result == nil || st.Result.Report == nil {
		t.Fatalf("succeeded job has no result report: %+v", st)
	}

	// The full SSE replay after completion: every stored event, then done.
	resp, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q, want text/event-stream", ct)
	}
	events, done := sseEvents(t, bufio.NewReader(resp.Body))
	if len(events) != st.Events {
		t.Fatalf("SSE replayed %d events, status says %d", len(events), st.Events)
	}
	if done == nil || done.State != JobSucceeded {
		t.Fatalf("SSE stream did not end with a succeeded done event: %+v", done)
	}
	if len(events) < 1 {
		t.Fatal("no progress events for a fresh exact solve")
	}
	// The trajectory improves monotonically and the gap shrinks strictly.
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if i == 0 {
			continue
		}
		prev := events[i-1]
		improved := (ev.Incumbent >= 0 && (prev.Incumbent < 0 || ev.Incumbent < prev.Incumbent)) || ev.Bound > prev.Bound
		if !improved {
			t.Fatalf("event %d does not improve on %d: %+v -> %+v", i, i-1, prev, ev)
		}
		if prev.Gap >= 0 && (ev.Gap < 0 || ev.Gap >= prev.Gap) {
			t.Fatalf("gap did not shrink strictly: %+v -> %+v", prev, ev)
		}
	}
	final := events[len(events)-1]
	if final.Incumbent != float64(st.Result.Report.Makespan) {
		t.Fatalf("final event incumbent %v, report makespan %d", final.Incumbent, st.Result.Report.Makespan)
	}

	// Byte-identical to the synchronous path: same cache, same report.
	var sync SolveResponse
	if status := postSolve(t, ts, body, &sync); status != http.StatusOK {
		t.Fatalf("sync solve status %d", status)
	}
	syncJSON, _ := json.Marshal(sync.Report)
	jobJSON, _ := json.Marshal(st.Result.Report)
	if string(syncJSON) != string(jobJSON) {
		t.Fatalf("job report differs from synchronous report:\n job: %s\nsync: %s", jobJSON, syncJSON)
	}
	if !sync.Cached {
		t.Fatal("synchronous repeat of a completed job was not a cache hit")
	}
}

// bridgeBody is an exact-solver request on the 5-arc Wheatstone bridge
// with one step job per arc, under the given options JSON.
func bridgeBody(options string) string {
	step := `{"kind":"step","tuples":[{"r":0,"t":9},{"r":1,"t":5},{"r":3,"t":2}]}`
	return `{"solver":"exact","options":` + options + `,"instance":{"nodes":["s","a","b","t"],"edges":[` +
		`{"from":0,"to":1,"fn":` + step + `},{"from":0,"to":2,"fn":` + step + `},{"from":1,"to":2,"fn":` + step + `},` +
		`{"from":1,"to":3,"fn":` + step + `},{"from":2,"to":3,"fn":` + step + `}]}}`
}

// TestJobFinalEventUnits pins the final trajectory point to the report's
// objective: a min-resource job ends on its resource count, not its
// makespan, and a bound-only report (no flow) ends with no incumbent.
func TestJobFinalEventUnits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	lastEvent := func(options string) (JobEvent, *solver.WireReport) {
		t.Helper()
		acc := postJob(t, ts, bridgeBody(options))
		st := pollJob(t, ts, acc.ID)
		if st.Result == nil || st.Result.Report == nil {
			t.Fatalf("%s: job finished %s without a report", options, st.State)
		}
		resp, err := http.Get(ts.URL + acc.EventsURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		events, _ := sseEvents(t, bufio.NewReader(resp.Body))
		if len(events) == 0 {
			t.Fatalf("%s: no trajectory events", options)
		}
		return events[len(events)-1], st.Result.Report
	}

	ev, rep := lastEvent(`{"target":14}`)
	if !rep.Complete || rep.Flow == nil {
		t.Fatalf("target 14: report %+v; want a complete solution", rep)
	}
	if ev.Incumbent != float64(rep.Resources) || ev.Bound != rep.LowerBound || ev.Gap != 0 {
		t.Fatalf("target 14: final event %+v; want incumbent %d resources, bound %v, gap 0", ev, rep.Resources, rep.LowerBound)
	}

	ev, rep = lastEvent(`{"target":10,"max_nodes":1}`)
	if rep.Flow != nil || rep.LowerBound <= 0 {
		t.Fatalf("node-capped: report %+v; want a bound-only report", rep)
	}
	if ev.Incumbent != -1 || ev.Gap != -1 || ev.Bound != rep.LowerBound {
		t.Fatalf("node-capped: final event %+v; want incumbent -1, gap -1, bound %v", ev, rep.LowerBound)
	}
}

// TestJobPollAfterComplete pins that finished jobs stay pollable (the
// retention window) and repeated polls are stable.
func TestJobPollAfterComplete(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	acc := postJob(t, ts, jobBody(t, 32, ""))
	first := pollJob(t, ts, acc.ID)
	if first.State != JobSucceeded {
		t.Fatalf("job finished %s", first.State)
	}
	for i := 0; i < 3; i++ {
		again := pollJob(t, ts, acc.ID)
		aj, _ := json.Marshal(again)
		fj, _ := json.Marshal(first)
		if string(aj) != string(fj) {
			t.Fatalf("poll %d changed a finished job:\nwas %s\nnow %s", i, fj, aj)
		}
	}
}

// TestJobRetention pins the finished-job eviction order: with RetainJobs
// 1, completing a second job evicts the first.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, RetainJobs: 1})
	a := postJob(t, ts, jobBody(t, 33, ""))
	pollJob(t, ts, a.ID)
	b := postJob(t, ts, jobBody(t, 34, ""))
	pollJob(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job %s: status %d, want 404", a.ID, resp.StatusCode)
	}
	if st := pollJob(t, ts, b.ID); st.State != JobSucceeded {
		t.Fatalf("retained job %s is %s", b.ID, st.State)
	}
}

// TestJobInvalidRequestRejectedBeforeAcceptance pins prepare-at-submit: a
// malformed job fails the POST with 400 and never becomes a dead job.
func TestJobInvalidRequestRejectedBeforeAcceptance(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	noMode := marshalRequest(t, scenario.NewGen(35).RequestStream(1, 1)[0])
	noMode.Options = solver.WireOptions{}
	noModeBody, err := json.Marshal(noMode)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"no instance":    `{"solver":"exact","options":{"budget":3}}`,
		"no mode":        string(noModeBody),
		"unknown solver": strings.Replace(jobBody(t, 35, ""), `"exact"`, `"nope"`, 1),
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if st := svc.jobs.stats(); st.Submitted != 0 {
		t.Fatalf("invalid requests were accepted as jobs: %+v", st)
	}
}

// occupyPool parks a no-op solve on every pool slot and returns the
// release function; jobs submitted meanwhile dispatch (the admission slot
// is free) but block at the pool, deterministically pinning "running".
func occupyPool(t *testing.T, svc *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, svc.pool.size())
	for range svc.pool.size() {
		go func() {
			_, _ = svc.pool.do(context.Background(), func() (solver.WireReport, error) {
				started <- struct{}{}
				<-gate
				return solver.WireReport{}, nil
			})
		}()
	}
	for range svc.pool.size() {
		<-started
	}
	return func() { close(gate) }
}

// TestJobSSEDisconnectMidStream pins that one subscriber dropping its
// stream neither kills the job nor poisons later subscribers.
func TestJobSSEDisconnectMidStream(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	release := occupyPool(t, svc)
	acc := postJob(t, ts, jobBody(t, 36, ""))

	// Subscribe while the job is blocked on the pool, then hang up.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+acc.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	cancel()
	resp.Body.Close()

	release()
	if st := pollJob(t, ts, acc.ID); st.State != JobSucceeded {
		t.Fatalf("job finished %s after a subscriber disconnect, want succeeded", st.State)
	}
	// A fresh subscriber still gets the complete replay.
	resp2, err := http.Get(ts.URL + acc.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events, done := sseEvents(t, bufio.NewReader(resp2.Body))
	if done == nil || done.State != JobSucceeded || len(events) == 0 {
		t.Fatalf("post-disconnect replay broken: %d events, done %+v", len(events), done)
	}
}

// TestJobCancel covers DELETE in all three states: queued jobs finish
// canceled without running, running jobs get their context canceled, and
// finished jobs are forgotten.
func TestJobCancel(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	release := occupyPool(t, svc)

	running := postJob(t, ts, jobBody(t, 37, ""))  // dispatched, blocked at the pool
	queued := postJob(t, ts, jobBody(t, 38, ""))   // waiting for the admission slot
	finished := postJob(t, ts, jobBody(t, 39, "")) // will complete after release

	del := func(id string) JobStatus {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	if st := del(queued.ID); st.State != JobCanceled {
		t.Fatalf("canceled queued job is %s, want canceled", st.State)
	}
	if st := del(running.ID); st.State != JobRunning && st.State != JobCanceled {
		t.Fatalf("canceled running job is %s", st.State)
	}
	release()
	if st := pollJob(t, ts, running.ID); st.State != JobCanceled {
		t.Fatalf("running job finished %s after cancel, want canceled", st.State)
	}
	if st := pollJob(t, ts, finished.ID); st.State != JobSucceeded {
		t.Fatalf("untouched job finished %s", st.State)
	}
	// The canceled-queued job streamed no work and holds no result.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Result != nil || st.Events != 0 {
		t.Fatalf("canceled-before-running job has work attached: %+v", st)
	}
	// DELETE on the finished job forgets it.
	del(finished.ID)
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + finished.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("forgotten job: status %d, want 404", resp2.StatusCode)
	}
	stats := svc.jobs.stats()
	if stats.Canceled != 2 {
		t.Fatalf("stats count %d canceled jobs, want 2: %+v", stats.Canceled, stats)
	}
}

// TestJobAdmissionOrder pins the admission heap's full ordering:
// priority descending, then deadline ascending with "none" last, then
// submission order.
func TestJobAdmissionOrder(t *testing.T) {
	now := time.Now()
	mk := func(seq int64, prio int, deadline time.Time) *job {
		return &job{seq: seq, priority: prio, deadline: deadline, index: -1}
	}
	jobs := []*job{
		mk(1, 0, time.Time{}),
		mk(2, 5, time.Time{}),
		mk(3, 5, now.Add(time.Hour)),
		mk(4, 5, now.Add(time.Minute)),
		mk(5, 0, now.Add(time.Second)),
		mk(6, 0, time.Time{}),
	}
	var h jobHeap
	for _, jb := range jobs {
		heap.Push(&h, jb)
	}
	var got []int64
	for h.Len() > 0 {
		got = append(got, heap.Pop(&h).(*job).seq)
	}
	want := []int64{4, 3, 2, 5, 1, 6}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("admission order %v, want %v", got, want)
	}
}

// TestJobAfterStoreCorruption restarts the service on a store containing
// a half-written report entry: the boot skips (and counts) the corrupt
// entry, and re-submitting the job re-solves and succeeds.
func TestJobAfterStoreCorruption(t *testing.T) {
	dir := t.TempDir()
	body := jobBody(t, 40, "")

	svc, ts := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	acc := postJob(t, ts, body)
	st := pollJob(t, ts, acc.ID)
	if st.State != JobSucceeded {
		t.Fatalf("job finished %s", st.State)
	}
	ts.Close()
	svc.Close()

	// Truncate every stored report mid-file: an entry torn under its
	// final name by a power loss, as seen by the next boot.
	reports, err := filepath.Glob(filepath.Join(dir, "reports", "*.json"))
	if err != nil || len(reports) == 0 {
		t.Fatalf("no stored reports to corrupt (err %v)", err)
	}
	for _, path := range reports {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	lr, ok := svc2.StoreLoad()
	if !ok || lr.Corrupt == 0 {
		t.Fatalf("restart did not count the corrupt entries: %+v (ok %v)", lr, ok)
	}
	acc2 := postJob(t, ts2, body)
	st2 := pollJob(t, ts2, acc2.ID)
	if st2.State != JobSucceeded {
		t.Fatalf("re-solve after corruption finished %s", st2.State)
	}
	if st2.Result.StoreHit {
		t.Fatal("corrupt store entry was served as a hit")
	}
	if st.Result.Report.Makespan != st2.Result.Report.Makespan {
		t.Fatalf("re-solve changed the answer: %d vs %d", st.Result.Report.Makespan, st2.Result.Report.Makespan)
	}
}
