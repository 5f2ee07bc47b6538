package service

// This file is the service side of cluster mode (see internal/cluster
// for the ring and the peer HTTP client): request forwarding to owner
// nodes and the /internal/v1/* peer endpoints.  Identical requests on a
// node coalesce in the result cache's flight before anything is
// forwarded (see solvePrepared), so there is one single-flight per node
// whether its leader solves or forwards.
//
// Invariants:
//
//   - hash-owned: a request is solved by the node that rendezvous-owns
//     its canonical hash, so the cluster compiles and solves each
//     distinct instance once;
//   - forward-once: a request arriving over /internal/v1/solve is solved
//     where it lands, never re-forwarded, so membership disagreement can
//     cost duplicate work but never a routing loop;
//   - degrade-to-local: an unreachable owner turns into a local solve,
//     never a client-visible error.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// clusterState carries a clustered server's ring, peer client and
// counters.  nil on standalone servers.
type clusterState struct {
	ring   *cluster.Ring
	client *cluster.Client

	forwards         atomic.Int64
	forwardHits      atomic.Int64
	forwardCoalesced atomic.Int64
	fallbacks        atomic.Int64
	ownerSolves      atomic.Int64
}

func newClusterState(ring *cluster.Ring) *clusterState {
	return &clusterState{ring: ring, client: cluster.NewClient()}
}

// forward performs one forward of p to its owner over
// /internal/v1/solve.  Anything short of a decodable 200 — transport
// failure after retries, a non-200, a garbled body — reports false so
// the caller degrades to a local solve; a non-200 from the owner is
// indistinguishable in effect from an unreachable one, and re-validating
// locally reproduces any genuine request error.
func (cl *clusterState) forward(ctx context.Context, p *prepared) (SolveResponse, bool) {
	fwd := p.req
	if !p.opts.Deadline.IsZero() {
		// The wire deadline is relative and re-anchored where it lands;
		// forward only the REMAINING budget so the hop cannot extend it.
		remaining := time.Until(p.opts.Deadline).Milliseconds()
		if remaining < 1 {
			remaining = 1
		}
		fwd.Options.DeadlineMS = remaining
	}
	body, err := json.Marshal(fwd)
	if err != nil {
		return SolveResponse{}, false
	}
	cl.forwards.Add(1)
	data, status, err := cl.client.PostJSON(ctx, p.owner+"/internal/v1/solve", body)
	if err != nil || status != http.StatusOK {
		return SolveResponse{}, false
	}
	var resp SolveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return SolveResponse{}, false
	}
	cl.forwardHits.Add(1)
	resp.Forwarded = true
	return resp, true
}

// clusterStats snapshots the cluster block of /v1/stats; nil standalone.
func (s *Server) clusterStats() *ClusterStats {
	if s.cluster == nil {
		return nil
	}
	cl := s.cluster
	return &ClusterStats{
		Self:             cl.ring.Self(),
		Peers:            cl.ring.Peers(),
		Forwards:         cl.forwards.Load(),
		ForwardHits:      cl.forwardHits.Load(),
		ForwardCoalesced: cl.forwardCoalesced.Load(),
		Fallbacks:        cl.fallbacks.Load(),
		OwnerSolves:      cl.ownerSolves.Load(),
	}
}

// handleInternalSolve is the owner side of a forward: one solve, no
// batch envelope, solved where it lands (forward-once).  It does not
// count toward the public request counter — /v1/stats requests measures
// client traffic, and the proxying node already counted this request.
func (s *Server) handleInternalSolve(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(s, w, r, decodeSolveRequest)
	if !ok {
		return
	}
	resp, status := s.solveOne(r.Context(), req, true, nil)
	writeSolve(w, resp, status)
}

// handleInternalProbe reports what this node holds for a canonical hash
// without triggering any solve: cached results, stored instance, and who
// owns the hash under this node's ring.
func (s *Server) handleInternalProbe(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	resp := ProbeResponse{
		Hash:      hash,
		SelfOwned: true, // a standalone node owns everything
		Results:   s.cache.resultsForHash(hash),
	}
	if s.cluster != nil {
		resp.Owner = s.cluster.ring.Owner(hash)
		resp.SelfOwned = resp.Owner == s.cluster.ring.Self()
	}
	if s.store != nil {
		_, resp.Stored = s.store.GetInstance(hash)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleInternalHealth answers liveness plus this node's configured
// ring, so peers and smoke tests can detect membership disagreement.
func (s *Server) handleInternalHealth(w http.ResponseWriter, r *http.Request) {
	resp := ClusterHealthResponse{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.start)) / float64(time.Millisecond),
	}
	if s.cluster != nil {
		resp.Self = s.cluster.ring.Self()
		resp.Peers = s.cluster.ring.Peers()
	}
	writeJSON(w, http.StatusOK, resp)
}
