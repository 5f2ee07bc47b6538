package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// clusterHarness is an in-process cluster: n Servers, each listening on
// a real loopback port (ownership is computed over the advertised URLs,
// so the listeners must exist before the rings are built) and each
// configured with the full membership.
type clusterHarness struct {
	svcs []*Server
	ts   []*httptest.Server
	urls []string
}

func newClusterHarness(t *testing.T, n int) *clusterHarness {
	t.Helper()
	h := &clusterHarness{}
	listeners := make([]net.Listener, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		h.urls = append(h.urls, "http://"+l.Addr().String())
	}
	for i := range listeners {
		svc, err := New(Config{Workers: 2, Self: h.urls[i], Peers: h.urls})
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{
			Listener: listeners[i],
			Config:   &http.Server{Handler: svc.Handler()},
		}
		ts.Start()
		h.svcs = append(h.svcs, svc)
		h.ts = append(h.ts, ts)
	}
	t.Cleanup(func() {
		for i := range h.svcs {
			h.kill(i)
		}
	})
	return h
}

// kill stops node i's listener and service; idempotent so the cleanup
// can run after a test already killed its owner.
func (h *clusterHarness) kill(i int) {
	if h.ts[i] != nil {
		h.ts[i].Close()
		h.ts[i] = nil
		h.svcs[i].Close()
	}
}

// post sends one solve to node i and decodes the response.
func (h *clusterHarness) post(t *testing.T, i int, body string) (SolveResponse, int) {
	t.Helper()
	out, status, err := h.tryPost(i, body)
	if err != nil {
		t.Fatal(err)
	}
	return out, status
}

// tryPost is post for goroutines other than the test's own, which must
// not call t.Fatal.
func (h *clusterHarness) tryPost(i int, body string) (SolveResponse, int, error) {
	resp, err := http.Post(h.urls[i]+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		return SolveResponse{}, 0, err
	}
	defer resp.Body.Close()
	var out SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return SolveResponse{}, 0, fmt.Errorf("decoding response: %v", err)
	}
	return out, resp.StatusCode, nil
}

// ownerIndex returns which node owns req's instance, computed from the
// same canonical hash the servers route on.
func (h *clusterHarness) ownerIndex(t *testing.T, req SolveRequest) int {
	t.Helper()
	var inst core.Instance
	if err := json.Unmarshal(req.Instance, &inst); err != nil {
		t.Fatal(err)
	}
	owner := h.svcs[0].cluster.ring.Owner(core.Compile(&inst).Hash())
	for i, u := range h.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a harness node", owner)
	return -1
}

// reqOwnedBy searches generator seeds for a request owned by node want,
// so tests can pin which member computes.
func (h *clusterHarness) reqOwnedBy(t *testing.T, want int) SolveRequest {
	t.Helper()
	for seed := int64(9000); seed < 9100; seed++ {
		req := marshalRequest(t, scenario.NewGen(seed).RequestStream(1, 1)[0])
		if h.ownerIndex(t, req) == want {
			return req
		}
	}
	t.Fatalf("no generated instance owned by node %d in 100 seeds", want)
	return SolveRequest{}
}

func marshalBody(t *testing.T, req SolveRequest) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func (h *clusterHarness) totalPoolJobs() int64 {
	var jobs int64
	for _, svc := range h.svcs {
		jobs += svc.pool.stats().Jobs
	}
	return jobs
}

// TestClusterSolvesOnceClusterWide is the headline invariant: the same
// request sent to every node computes exactly once, on the owner, and
// every answer is byte-identical.
func TestClusterSolvesOnceClusterWide(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 1)
	body := marshalBody(t, req)

	var reports []string
	for i := range h.svcs {
		resp, status := h.post(t, i, body)
		if status != http.StatusOK || resp.Error != "" || resp.Report == nil {
			t.Fatalf("node %d: status %d, resp %+v", i, status, resp)
		}
		if resp.Owner != h.urls[1] {
			t.Fatalf("node %d reports owner %s, want %s", i, resp.Owner, h.urls[1])
		}
		if wantFwd := i != 1; resp.Forwarded != wantFwd {
			t.Fatalf("node %d: forwarded = %v, want %v", i, resp.Forwarded, wantFwd)
		}
		if !resp.Report.Complete {
			t.Fatalf("node %d: incomplete report %+v", i, resp.Report)
		}
		rj, _ := json.Marshal(resp.Report)
		reports = append(reports, string(rj))
	}
	for i, r := range reports[1:] {
		if r != reports[0] {
			t.Fatalf("node %d report differs:\n%s\n%s", i+1, reports[0], r)
		}
	}

	if jobs := h.totalPoolJobs(); jobs != 1 {
		t.Fatalf("cluster ran %d pool jobs for one distinct instance, want 1", jobs)
	}
	var ownerSolves, forwards, forwardHits int64
	for i, svc := range h.svcs {
		cs := svc.clusterStats()
		ownerSolves += cs.OwnerSolves
		forwards += cs.Forwards
		forwardHits += cs.ForwardHits
		if cs.Fallbacks != 0 {
			t.Fatalf("node %d recorded %d fallbacks in a healthy cluster", i, cs.Fallbacks)
		}
	}
	if ownerSolves != 1 || forwards != 2 || forwardHits != 2 {
		t.Fatalf("owner_solves %d, forwards %d, forward_hits %d; want 1, 2, 2",
			ownerSolves, forwards, forwardHits)
	}

	// The cluster block surfaces over /v1/stats with the full membership.
	resp, err := http.Get(h.urls[1] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil || len(stats.Cluster.Peers) != 3 || stats.Cluster.OwnerSolves != 1 {
		t.Fatalf("stats cluster block: %+v", stats.Cluster)
	}
}

// TestClusterConcurrentRequestsCoalesce spreads identical concurrent
// deadline-free requests across every node: proxy-side forward
// coalescing plus owner-side single-flight must hold the cluster to one
// pool job with zero errors.
func TestClusterConcurrentRequestsCoalesce(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 2)
	body := marshalBody(t, req)

	const perNode = 4
	var wg sync.WaitGroup
	errs := make(chan string, 3*perNode)
	for i := range h.svcs {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, status := h.post(t, i, body)
				if status != http.StatusOK || resp.Error != "" || resp.Report == nil {
					errs <- fmt.Sprintf("node %d: status %d, error %q", i, status, resp.Error)
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if jobs := h.totalPoolJobs(); jobs != 1 {
		t.Fatalf("cluster ran %d pool jobs for %d identical requests, want 1", jobs, 3*perNode)
	}
	// Each proxy dispatched at most one forward; its other requests either
	// joined that flight or hit the owner's cache afterwards.
	for i, svc := range h.svcs {
		if i == 2 {
			continue
		}
		if cs := svc.clusterStats(); cs.Forwards > perNode || cs.Forwards < 1 {
			t.Fatalf("node %d dispatched %d forwards for %d requests", i, cs.Forwards, perNode)
		}
	}
}

// TestClusterIsomorphicEncodingsShareOwner re-encodes the same DAG with
// renamed nodes and reordered arcs (the invariances CanonicalHash
// grants): canonical hashing must land both on the same owner and the
// second request on the first's cache.
func TestClusterIsomorphicEncodingsShareOwner(t *testing.T) {
	h := newClusterHarness(t, 3)
	encA := `{"solver":"exact","options":{"budget":3},"instance":{"nodes":["s","a","t"],
		"edges":[{"from":0,"to":1,"fn":{"kind":"const","t0":2}},
		         {"from":1,"to":2,"fn":{"kind":"kway","t0":9}}]}}`
	encB := `{"solver":"exact","options":{"budget":3},"instance":{"nodes":["source","middle","sink"],
		"edges":[{"from":1,"to":2,"fn":{"kind":"kway","t0":9}},
		         {"from":0,"to":1,"fn":{"kind":"const","t0":2}}]}}`

	respA, statusA := h.post(t, 0, encA)
	respB, statusB := h.post(t, 1, encB)
	if statusA != http.StatusOK || statusB != http.StatusOK {
		t.Fatalf("statuses %d, %d", statusA, statusB)
	}
	if respA.Hash == "" || respA.Hash != respB.Hash {
		t.Fatalf("isomorphic encodings hashed apart: %q vs %q", respA.Hash, respB.Hash)
	}
	if respA.Owner != respB.Owner {
		t.Fatalf("isomorphic encodings owned apart: %q vs %q", respA.Owner, respB.Owner)
	}
	if !respB.Cached {
		t.Fatal("second isomorphic request missed the cluster-wide cache")
	}
	if jobs := h.totalPoolJobs(); jobs != 1 {
		t.Fatalf("cluster ran %d pool jobs for one DAG in two encodings, want 1", jobs)
	}
}

// TestClusterOwnerDownDegradesToLocal kills the owner mid-stream: the
// surviving nodes must answer every request 200 from local solves, with
// the degradation visible only in the fallback counters and the
// owner/forwarded response fields.
func TestClusterOwnerDownDegradesToLocal(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 1)
	body := marshalBody(t, req)

	// Healthy first: node 0 forwards to the owner.
	if resp, status := h.post(t, 0, body); status != http.StatusOK || !resp.Forwarded {
		t.Fatalf("healthy forward failed: status %d, %+v", status, resp)
	}

	h.kill(1)

	for _, i := range []int{0, 2} {
		resp, status := h.post(t, i, body)
		if status != http.StatusOK || resp.Error != "" || resp.Report == nil || !resp.Report.Complete {
			t.Fatalf("node %d surfaced the dead owner to the client: status %d, %+v", i, status, resp)
		}
		if resp.Forwarded {
			t.Fatalf("node %d claims a forward to a dead owner", i)
		}
		if resp.Owner != h.urls[1] {
			t.Fatalf("node %d reports owner %s, want the (dead) owner %s", i, resp.Owner, h.urls[1])
		}
	}
	for _, i := range []int{0, 2} {
		if cs := h.svcs[i].clusterStats(); cs.Fallbacks < 1 {
			t.Fatalf("node %d recorded no fallback after the owner died: %+v", i, cs)
		}
	}
}

// TestClusterInternalEndpoints exercises the peer API surface directly:
// probe placement before and after a solve, health with membership, and
// the forward-once contract of /internal/v1/solve.
func TestClusterInternalEndpoints(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 0)
	body := marshalBody(t, req)
	var inst core.Instance
	if err := json.Unmarshal(req.Instance, &inst); err != nil {
		t.Fatal(err)
	}
	hash := core.Compile(&inst).Hash()

	getJSON := func(url string, out any) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	var probe ProbeResponse
	if status := getJSON(h.urls[0]+"/internal/v1/probe/"+hash, &probe); status != http.StatusOK {
		t.Fatalf("probe status %d", status)
	}
	if !probe.SelfOwned || probe.Owner != h.urls[0] || probe.Results != 0 {
		t.Fatalf("pre-solve probe on owner: %+v", probe)
	}

	// Forward-once: a request arriving over the peer API is solved where
	// it lands, even on a node that does NOT own the hash.
	resp, err := http.Post(h.urls[1]+"/internal/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr SolveResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("internal solve: %v, status %d", err, resp.StatusCode)
	}
	if sr.Forwarded || sr.Report == nil {
		t.Fatalf("internal solve on non-owner must solve locally: %+v", sr)
	}
	if h.svcs[1].pool.stats().Jobs != 1 {
		t.Fatalf("non-owner did not run the peer-delivered solve itself")
	}

	// The probed node's cache now holds the result it was made to solve.
	if status := getJSON(h.urls[1]+"/internal/v1/probe/"+hash, &probe); status != http.StatusOK {
		t.Fatalf("probe status %d", status)
	}
	if probe.SelfOwned || probe.Owner != h.urls[0] || probe.Results != 1 {
		t.Fatalf("post-solve probe on non-owner: %+v", probe)
	}

	var health ClusterHealthResponse
	if status := getJSON(h.urls[2]+"/internal/v1/health", &health); status != http.StatusOK {
		t.Fatalf("health status %d", status)
	}
	if health.Status != "ok" || health.Self != h.urls[2] || len(health.Peers) != 3 {
		t.Fatalf("cluster health: %+v", health)
	}

	// Internal endpoints answer errors with the unified envelope too.
	delReq, _ := http.NewRequest(http.MethodDelete, h.urls[0]+"/internal/v1/health", nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorResponse
	err = json.NewDecoder(dresp.Body).Decode(&envelope)
	dresp.Body.Close()
	if err != nil || dresp.StatusCode != http.StatusMethodNotAllowed ||
		envelope.Error.Code != "method_not_allowed" {
		t.Fatalf("internal endpoint error envelope: status %d, %+v", dresp.StatusCode, envelope)
	}
}

// TestClusterDeadlineBoundedForwards pins that deadline-bounded requests
// forward with their remaining budget but never join forward flights
// (mirroring the local rule that they never join solve flights).
func TestClusterDeadlineBoundedForwards(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 1)
	req.Options.DeadlineMS = 60_000
	body := marshalBody(t, req)

	resp, status := h.post(t, 0, body)
	if status != http.StatusOK || resp.Error != "" || !resp.Forwarded {
		t.Fatalf("deadline-bounded forward: status %d, %+v", status, resp)
	}
	cs := h.svcs[0].clusterStats()
	if cs.Forwards != 1 || cs.ForwardCoalesced != 0 {
		t.Fatalf("deadline-bounded request coalesced: %+v", cs)
	}
}

// TestClusterMisconfigurationRejected pins construction errors: peers
// without a self address, and malformed peer URLs.
func TestClusterMisconfigurationRejected(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://a:1"}}); err == nil {
		t.Fatal("peers without self must be rejected")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"not-a-url"}}); err == nil {
		t.Fatal("malformed peer must be rejected")
	}
}

// TestClusterForwardsShareOneFlight sends identical concurrent requests
// to a non-owner: they coalesce in the result cache's flight before
// anything is forwarded, every answer is the owner's (cached for all but
// the one request the owner computed), and the relayed report never
// enters the non-owner's LRU.
func TestClusterForwardsShareOneFlight(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 1)
	body := marshalBody(t, req)

	const n = 8
	var wg sync.WaitGroup
	resps := make([]SolveResponse, n)
	statuses := make([]int, n)
	for i := range n {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if resps[i], statuses[i], err = h.tryPost(0, body); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fresh := 0
	for i, resp := range resps {
		if statuses[i] != http.StatusOK || resp.Error != "" || resp.Report == nil || !resp.Forwarded {
			t.Fatalf("request %d: status %d, %+v", i, statuses[i], resp)
		}
		if resp.Owner != h.urls[1] {
			t.Fatalf("request %d reports owner %s, want %s", i, resp.Owner, h.urls[1])
		}
		if !resp.Cached {
			fresh++
		}
		if a, b := fmt.Sprint(*resp.Report), fmt.Sprint(*resps[0].Report); a != b {
			t.Fatalf("request %d report differs:\n%s\n%s", i, b, a)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d responses claim a fresh solve; want exactly the owner's one", fresh)
	}
	cs := h.svcs[0].clusterStats()
	if cs.Forwards+cs.ForwardCoalesced != n || cs.ForwardHits != cs.Forwards || cs.Fallbacks != 0 {
		t.Fatalf("non-owner counters %+v; every request must forward or coalesce onto a forward", cs)
	}
	if st := h.svcs[0].cache.stats(); st.Size != 0 {
		t.Fatalf("non-owner cached %d forwarded reports; want none", st.Size)
	}
	if jobs := h.totalPoolJobs(); jobs != 1 {
		t.Fatalf("cluster ran %d pool jobs, want 1", jobs)
	}
}

// TestClusterOwnerDownSharesOneFallback sends identical concurrent
// requests to a non-owner whose owner is down: they share one failed
// forward and one fallback solve instead of each falling back.
func TestClusterOwnerDownSharesOneFallback(t *testing.T) {
	h := newClusterHarness(t, 3)
	req := h.reqOwnedBy(t, 1)
	body := marshalBody(t, req)
	h.kill(1)
	before := h.svcs[0].pool.stats().Jobs

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, status, err := h.tryPost(0, body)
			if err != nil {
				errs <- err.Error()
				return
			}
			if status != http.StatusOK || resp.Error != "" || resp.Report == nil || !resp.Report.Complete ||
				resp.Forwarded || resp.Owner != h.urls[1] {
				errs <- fmt.Sprintf("status %d, %+v", status, resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	cs := h.svcs[0].clusterStats()
	if cs.Fallbacks != 1 || cs.Forwards != 1 {
		t.Fatalf("fallbacks %d, forwards %d for %d identical requests; want 1, 1", cs.Fallbacks, cs.Forwards, n)
	}
	if jobs := h.svcs[0].pool.stats().Jobs - before; jobs != 1 {
		t.Fatalf("non-owner ran %d pool jobs for %d identical requests; want 1", jobs, n)
	}
}
