package service

// Async jobs: POST /v1/jobs accepts a solve (or frontier sweep) and
// returns 202 immediately; the work runs on the same bounded pool as
// synchronous solves, admitted in priority order (then earliest deadline,
// then submission order).  GET /v1/jobs/{id} polls status, GET
// /v1/jobs/{id}/events streams the live incumbent/lower-bound/gap
// trajectory over SSE (replayed from the start for late subscribers), and
// DELETE /v1/jobs/{id} cancels queued or running work.  Results flow
// through the same cache/store path as /v1/solve, so a completed job's
// report is byte-identical to the synchronous answer for the same request
// and survives restarts via the durable store.

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/solver"
)

// Job states, as reported in JobStatus.State.
const (
	// JobQueued: accepted, waiting for an admission slot.
	JobQueued = "queued"
	// JobRunning: executing on the pool.
	JobRunning = "running"
	// JobSucceeded: finished with a complete, error-free result.
	JobSucceeded = "succeeded"
	// JobFailed: finished with an error; a partial (deadline-interrupted)
	// report may still be present in the result.
	JobFailed = "failed"
	// JobCanceled: canceled via DELETE before or during execution; a
	// partial report may still be present.
	JobCanceled = "canceled"
)

// maxJobEvents caps one job's stored trajectory.  Solver emission is
// improvement-driven and rate-limited, so real trajectories are far
// shorter; the cap only bounds a pathological solver's memory.
const maxJobEvents = 1024

// JobRequest is the body of POST /v1/jobs: a SolveRequest plus job-level
// knobs, or a frontier sweep under "frontier".
type JobRequest struct {
	SolveRequest
	// Frontier, when set, makes this a frontier job: the sweep of
	// FrontierRequest runs asynchronously, emitting one progress event per
	// completed point.  The inline solve fields are then ignored.
	Frontier *FrontierRequest `json:"frontier,omitempty"`
	// Priority orders admission: higher runs first; equal priorities fall
	// back to earliest deadline, then submission order.  Default 0.
	Priority int `json:"priority,omitempty"`
}

// JobAccepted answers POST /v1/jobs with 202.
type JobAccepted struct {
	// ID names the job.
	ID string `json:"id"`
	// State is the job's state at acceptance (normally "queued").
	State string `json:"state"`
	// StatusURL polls the job; EventsURL streams its trajectory (SSE).
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// JobEvent is one point of a job's anytime trajectory.
type JobEvent struct {
	// Seq numbers events from 0 within the job; SSE replays always start
	// at 0, so Seq lets clients dedupe across reconnects.
	Seq int `json:"seq"`
	// Incumbent is the best feasible objective so far (-1 before the first
	// solution); Bound is the best certified lower bound so far (0 before
	// one exists).  For solve jobs the pair is monotone: Incumbent only
	// falls, Bound only rises.  For frontier jobs each event is one
	// completed sweep point instead.
	Incumbent float64 `json:"incumbent"`
	Bound     float64 `json:"bound"`
	// Gap is Incumbent-Bound, or -1 while no incumbent exists; on solve
	// jobs it shrinks strictly across events.
	Gap float64 `json:"gap"`
	// Nodes counts solver work at emission (search nodes, FW iterations;
	// completed points for frontier jobs).
	Nodes int64 `json:"nodes"`
	// ElapsedMS is the time since the job was accepted.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// JobStatus answers GET /v1/jobs/{id} (and each entry of GET /v1/jobs).
type JobStatus struct {
	// ID names the job; State is one of the Job* constants.
	ID    string `json:"id"`
	State string `json:"state"`
	// Solver is the requested solver name ("auto" when defaulted).
	Solver string `json:"solver,omitempty"`
	// Priority echoes the admission priority.
	Priority int `json:"priority,omitempty"`
	// Events counts trajectory events so far; LastEvent is the newest.
	Events    int       `json:"events"`
	LastEvent *JobEvent `json:"last_event,omitempty"`
	// Result is the solve outcome of a finished solve job; identical to
	// what POST /v1/solve returns for the same request.
	Result *SolveResponse `json:"result,omitempty"`
	// Frontier is the sweep outcome of a finished frontier job.
	Frontier *FrontierResponse `json:"frontier,omitempty"`
}

// JobsResponse answers GET /v1/jobs, sorted by job id.
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// JobsStats counts job activity for /v1/stats.
type JobsStats struct {
	// Submitted counts accepted jobs since boot.
	Submitted int64 `json:"submitted"`
	// Queued and Running count jobs currently in those states.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Done counts finished jobs (succeeded, failed, or canceled);
	// Canceled counts the canceled subset.
	Done     int64 `json:"done"`
	Canceled int64 `json:"canceled"`
	// Retained counts finished jobs still held for polling.
	Retained int `json:"retained"`
}

// job is one async unit of work and its trajectory.  Admission fields are
// immutable after submit; mutable state is guarded by mu.
type job struct {
	id       string
	seq      int64
	priority int
	deadline time.Time // zero: none; orders admission within a priority
	created  time.Time

	p     *prepared     // solve payload; nil for frontier jobs
	plan  *frontierPlan // frontier payload; nil for solve jobs
	name  string        // solver name, for status
	reg   *jobRegistry
	index int // heap index; -1 once popped

	mu        sync.Mutex
	state     string
	cancel    context.CancelFunc // set at dispatch; nil while queued
	cancelReq bool               // DELETE arrived; final state is JobCanceled
	events    []JobEvent
	changed   chan struct{} // closed and replaced on every mutation
	result    *SolveResponse
	frontier  *FrontierResponse
}

// appendEvent adds one trajectory event.  With improvedOnly, events that
// do not strictly improve the (incumbent, bound) pair are dropped — the
// guarantee that a solve job's streamed gap shrinks strictly even when
// parallel workers deliver around each other.
func (j *job) appendEvent(ev JobEvent, improvedOnly bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) >= maxJobEvents {
		return
	}
	if improvedOnly && len(j.events) > 0 {
		last := j.events[len(j.events)-1]
		improved := (ev.Incumbent >= 0 && (last.Incumbent < 0 || ev.Incumbent < last.Incumbent)) ||
			ev.Bound > last.Bound
		if !improved {
			return
		}
	}
	ev.Seq = len(j.events)
	if ev.Incumbent >= 0 {
		ev.Gap = ev.Incumbent - ev.Bound
	} else {
		ev.Gap = -1
	}
	j.events = append(j.events, ev)
	j.wakeLocked()
}

// wakeLocked signals every watcher (SSE streams) that the job changed.
func (j *job) wakeLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventsFrom returns the events at index next and beyond, the channel that
// signals the next change, and whether the job is finished.  The returned
// slice is safe to read concurrently: events are append-only and entries
// immutable.
func (j *job) eventsFrom(next int) (events []JobEvent, changed <-chan struct{}, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if next < len(j.events) {
		events = j.events[next:]
	}
	return events, j.changed, j.state == JobSucceeded || j.state == JobFailed || j.state == JobCanceled
}

// status snapshots the job as wire JSON.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Solver:   j.name,
		Priority: j.priority,
		Events:   len(j.events),
		Result:   j.result,
		Frontier: j.frontier,
	}
	if n := len(j.events); n > 0 {
		ev := j.events[n-1]
		st.LastEvent = &ev
	}
	return st
}

// jobHeap orders queued jobs for admission: priority descending, then
// deadline ascending (none sorts last), then submission order.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	x, y := h[a], h[b]
	if x.priority != y.priority {
		return x.priority > y.priority
	}
	switch {
	case x.deadline.IsZero() != y.deadline.IsZero():
		return !x.deadline.IsZero()
	case !x.deadline.IsZero() && !x.deadline.Equal(y.deadline):
		return x.deadline.Before(y.deadline)
	}
	return x.seq < y.seq
}
func (h jobHeap) Swap(a, b int) {
	h[a], h[b] = h[b], h[a]
	h[a].index = a
	h[b].index = b
}
func (h *jobHeap) Push(x any) {
	jb := x.(*job)
	jb.index = len(*h)
	*h = append(*h, jb)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	jb := old[n-1]
	old[n-1] = nil
	jb.index = -1
	*h = old[:n-1]
	return jb
}

// jobRegistry owns every job: the admission queue, the running set, and
// the finished-job retention window.
type jobRegistry struct {
	s      *Server
	retain int

	mu        sync.Mutex
	byID      map[string]*job
	doneIDs   []string // finished jobs in completion order, oldest first
	pending   jobHeap
	seq       int64
	avail     int // free admission slots; sized to the pool
	closed    bool
	submitted int64
	done      int64
	canceled  int64

	wg sync.WaitGroup
}

func newJobRegistry(s *Server, slots, retain int) *jobRegistry {
	if slots < 1 {
		slots = 1
	}
	return &jobRegistry{s: s, retain: retain, byID: make(map[string]*job), avail: slots}
}

// submit validates and enqueues one job.  Validation happens here, before
// the 202: a malformed request fails the POST, never becomes a dead job.
func (r *jobRegistry) submit(req JobRequest, now time.Time) (*job, error) {
	jb := &job{
		priority: req.Priority,
		created:  now,
		reg:      r,
		state:    JobQueued,
		changed:  make(chan struct{}),
		index:    -1,
	}
	var p *prepared
	if req.Frontier != nil {
		plan, err := r.s.planFrontier(*req.Frontier, now)
		if err != nil {
			return nil, err
		}
		jb.plan, p = plan, plan.p
	} else {
		var err error
		if p, err = r.s.prepare(req.SolveRequest, now); err != nil {
			return nil, err
		}
		jb.p = p
	}
	jb.name, jb.deadline = p.name, p.opts.Deadline
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("service is shutting down")
	}
	r.seq++
	jb.seq = r.seq
	jb.id = fmt.Sprintf("j%08d", jb.seq)
	r.submitted++
	r.byID[jb.id] = jb
	heap.Push(&r.pending, jb)
	r.mu.Unlock()
	r.dispatch()
	return jb, nil
}

// dispatch starts queued jobs while admission slots are free.  Jobs
// canceled while queued are skipped here (lazy heap removal).
func (r *jobRegistry) dispatch() {
	for {
		r.mu.Lock()
		if r.closed || r.avail == 0 || r.pending.Len() == 0 {
			r.mu.Unlock()
			return
		}
		jb := heap.Pop(&r.pending).(*job)
		jb.mu.Lock()
		if jb.state != JobQueued {
			jb.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		jb.state = JobRunning
		jb.cancel = cancel
		jb.wakeLocked()
		jb.mu.Unlock()
		r.avail--
		r.wg.Add(1)
		r.mu.Unlock()
		go r.run(jb, ctx)
	}
}

// run executes one job under its own context (jobs outlive the submitting
// HTTP request) and releases its admission slot when done.
func (r *jobRegistry) run(jb *job, ctx context.Context) {
	defer func() {
		r.mu.Lock()
		r.avail++
		r.mu.Unlock()
		r.wg.Done()
		r.dispatch()
	}()
	start := time.Now()
	if jb.plan != nil {
		resp := r.s.solveFrontier(ctx, jb.plan, func(pt FrontierPoint, completed int) {
			jb.appendEvent(JobEvent{
				Incumbent: float64(pt.Makespan),
				Bound:     pt.LowerBound,
				Nodes:     int64(completed),
				ElapsedMS: float64(time.Since(jb.created)) / float64(time.Millisecond),
			}, false)
		})
		r.finish(jb, nil, &resp)
		return
	}
	p := *jb.p
	p.opts.Progress = func(ev solver.ProgressEvent) {
		jb.appendEvent(JobEvent{
			Incumbent: ev.Incumbent,
			Bound:     ev.Bound,
			Nodes:     ev.Nodes,
			ElapsedMS: float64(time.Since(jb.created)) / float64(time.Millisecond),
		}, true)
	}
	resp, _ := r.s.solvePrepared(ctx, &p, start)
	// Final trajectory point from the report itself: cached, store-served
	// and warm-completed answers reach the stream even when no solver
	// callback ever fired.  The improvement filter drops it when the live
	// trajectory already ended at these exact values.
	if resp.Report != nil {
		jb.appendEvent(JobEvent{
			Incumbent: finalIncumbent(resp.Report),
			Bound:     resp.Report.LowerBound,
			Nodes:     int64(resp.Report.Nodes),
			ElapsedMS: float64(time.Since(jb.created)) / float64(time.Millisecond),
		}, true)
	}
	r.finish(jb, &resp, nil)
}

// finalIncumbent reads a report's incumbent in the units of its objective,
// as the live events count it: resources for a min-resource report, the
// makespan otherwise, and -1 when the report carries no solution (a
// bound-only answer).
func finalIncumbent(rep *solver.WireReport) float64 {
	switch {
	case rep.Flow == nil:
		return -1
	case rep.Objective == solver.MinResource.String():
		return float64(rep.Resources)
	}
	return float64(rep.Makespan)
}

// finish records the outcome, resolves the final state, and applies the
// finished-job retention cap.
func (r *jobRegistry) finish(jb *job, sr *SolveResponse, fr *FrontierResponse) {
	jb.mu.Lock()
	jb.result = sr
	jb.frontier = fr
	failed := (sr != nil && sr.Error != "") || (fr != nil && fr.Error != "")
	switch {
	case jb.cancelReq:
		jb.state = JobCanceled
	case failed:
		jb.state = JobFailed
	default:
		jb.state = JobSucceeded
	}
	canceled := jb.state == JobCanceled
	jb.wakeLocked()
	jb.mu.Unlock()

	r.mu.Lock()
	r.done++
	if canceled {
		r.canceled++
	}
	r.doneIDs = append(r.doneIDs, jb.id)
	for len(r.doneIDs) > r.retain {
		delete(r.byID, r.doneIDs[0])
		r.doneIDs = r.doneIDs[1:]
	}
	r.mu.Unlock()
}

// get looks a job up by id.
func (r *jobRegistry) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	jb, ok := r.byID[id]
	return jb, ok
}

// requestCancel cancels a queued or running job.  Queued jobs finish
// immediately as canceled (the dispatcher skips them); running jobs get
// their context canceled and finish with whatever partial result the
// solver hands back.  It reports whether a cancellation was initiated.
func (r *jobRegistry) requestCancel(jb *job) bool {
	jb.mu.Lock()
	switch jb.state {
	case JobQueued:
		jb.cancelReq = true
		jb.mu.Unlock()
		r.finish(jb, nil, nil)
		return true
	case JobRunning:
		jb.cancelReq = true
		cancel := jb.cancel
		jb.mu.Unlock()
		cancel()
		return true
	}
	jb.mu.Unlock()
	return false
}

// remove forgets a FINISHED job; live jobs are refused.
func (r *jobRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	jb, ok := r.byID[id]
	if !ok {
		return false
	}
	jb.mu.Lock()
	finished := jb.state == JobSucceeded || jb.state == JobFailed || jb.state == JobCanceled
	jb.mu.Unlock()
	if !finished {
		return false
	}
	delete(r.byID, id)
	for i, d := range r.doneIDs {
		if d == id {
			r.doneIDs = append(r.doneIDs[:i], r.doneIDs[i+1:]...)
			break
		}
	}
	return true
}

// list snapshots every known job, sorted by id (ids embed the submission
// sequence, so this is submission order).
func (r *jobRegistry) list() []JobStatus {
	r.mu.Lock()
	ids := make([]string, 0, len(r.byID))
	for id := range r.byID {
		ids = append(ids, id)
	}
	jobs := make([]*job, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		jobs = append(jobs, r.byID[id])
	}
	r.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, jb := range jobs {
		out[i] = jb.status()
	}
	return out
}

// stats snapshots the job counters.
func (r *jobRegistry) stats() JobsStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := JobsStats{
		Submitted: r.submitted,
		Done:      r.done,
		Canceled:  r.canceled,
		Retained:  len(r.doneIDs),
	}
	//rt:unordered — counting states; the result is order-insensitive.
	for _, jb := range r.byID {
		jb.mu.Lock()
		switch jb.state {
		case JobQueued:
			st.Queued++
		case JobRunning:
			st.Running++
		}
		jb.mu.Unlock()
	}
	return st
}

// close rejects new submissions, cancels queued and running jobs, and
// waits for running ones to finish.
func (r *jobRegistry) close() {
	r.mu.Lock()
	r.closed = true
	jobs := make([]*job, 0, len(r.byID))
	for _, jb := range r.byID {
		jobs = append(jobs, jb)
	}
	r.mu.Unlock()
	for _, jb := range jobs {
		r.requestCancel(jb)
	}
	r.wg.Wait()
}

// handleJobs serves POST /v1/jobs (submit) and GET /v1/jobs (list).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, JobsResponse{Jobs: s.jobs.list()})
		return
	}
	s.requests.Add(1)
	req, ok := decodeBody(s, w, r, decodeJobRequest)
	if !ok {
		return
	}
	jb, err := s.jobs.submit(req, time.Now())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, JobAccepted{
		ID:        jb.id,
		State:     JobQueued,
		StatusURL: "/v1/jobs/" + jb.id,
		EventsURL: "/v1/jobs/" + jb.id + "/events",
	})
}

// handleJob serves GET /v1/jobs/{id} (poll) and DELETE /v1/jobs/{id}
// (cancel a live job, forget a finished one).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErrorDetail(w, http.StatusNotFound, r.PathValue("id"), "unknown job %q", r.PathValue("id"))
		return
	}
	if r.Method == http.MethodDelete && !s.jobs.requestCancel(jb) {
		// Already finished: forget it.  A live job's cancellation was
		// initiated instead, and the status reports the state it reached.
		s.jobs.remove(jb.id)
	}
	writeJSON(w, http.StatusOK, jb.status())
}

// handleJobEvents serves GET /v1/jobs/{id}/events: the job's trajectory
// as Server-Sent Events.  The stream replays every event from Seq 0, then
// follows the live trajectory; it ends with one "done" event carrying the
// final JobStatus once the job finishes.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErrorDetail(w, http.StatusNotFound, r.PathValue("id"), "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	next := 0
	for {
		events, changed, done := jb.eventsFrom(next)
		for _, ev := range events {
			writeSSE(w, "progress", ev)
		}
		next += len(events)
		if len(events) > 0 {
			fl.Flush()
		}
		if done {
			writeSSE(w, "done", jb.status())
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			// Client went away mid-stream; the job itself runs on.
			return
		}
	}
}

// writeSSE frames one JSON payload as a named Server-Sent Event.
func writeSSE(w http.ResponseWriter, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return // wire types marshal unconditionally
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
