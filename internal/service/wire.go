package service

import (
	"encoding/json"

	"repro/internal/solver"
	"repro/internal/store"
)

// SolveRequest is one solve over the wire: an instance in the core JSON
// form, a solver name, and options.
type SolveRequest struct {
	// Solver is the registry name to dispatch to; empty means "auto".
	Solver string `json:"solver,omitempty"`
	// Instance is the core.Instance wire document ({nodes, edges}).  Kept
	// raw so batch items decode (and fail) independently.
	Instance json.RawMessage `json:"instance"`
	// Options carries the solve knobs; the request-level deadline inside
	// it is anchored when the request is admitted.
	Options solver.WireOptions `json:"options,omitempty"`
}

// solveEnvelope is the body of POST /v1/solve: either a single
// SolveRequest inline, or a batch of them under "batch".
type solveEnvelope struct {
	SolveRequest
	Batch []SolveRequest `json:"batch,omitempty"`
}

// SolveResponse is the outcome of one solve request.
type SolveResponse struct {
	// Hash is the canonical instance hash (core.Instance.CanonicalHash),
	// the identity under which the result was cached.
	Hash string `json:"hash,omitempty"`
	// Cached reports that the response was served from the result cache
	// or coalesced onto an identical in-flight solve, not recomputed.
	Cached bool `json:"cached"`
	// CompiledHit reports that the instance's raw bytes, or the whole
	// /v1/solve body, were already compiled: the request skipped JSON
	// decoding, validation, compilation and canonical hashing, reusing the
	// cached core.Compiled.
	CompiledHit bool `json:"compiled_hit,omitempty"`
	// StoreHit reports that the result was served from the durable store
	// without queueing any solve: the answer survived a restart.
	StoreHit bool `json:"store_hit,omitempty"`
	// Warm reports that the solve was seeded with a stored neighbor's
	// solution (solver.Options.Incumbent).  A hint only: certificates are
	// recomputed, the reported optimum is exactly what a cold solve
	// certifies.
	Warm bool `json:"warm,omitempty"`
	// WallMS is the wall time this request spent in the service (queueing
	// included); the solve's own compute time is Report.WallMS.
	WallMS float64 `json:"wall_ms"`
	// InstanceNodes and InstanceArcs size the decoded instance.
	InstanceNodes int `json:"instance_nodes,omitempty"`
	InstanceArcs  int `json:"instance_arcs,omitempty"`
	// Report is the solve outcome; nil when Error is set and no partial
	// result exists.
	Report *solver.WireReport `json:"report,omitempty"`
	// Error is the failure, if any.  A partial (deadline-interrupted)
	// solve carries both an incomplete Report and an Error.
	Error string `json:"error,omitempty"`
	// Owner is the cluster node that owns this instance's hash; set only
	// in cluster mode.  When it differs from the serving node and
	// Forwarded is false, the serving node fell back to a local solve
	// because the owner was unreachable.
	Owner string `json:"owner,omitempty"`
	// Forwarded reports that this response was produced by the owner node
	// and relayed by the node the client spoke to.
	Forwarded bool `json:"forwarded,omitempty"`
}

// BatchResponse answers a batch solve; Results aligns with the request's
// Batch order.  Item failures are reported per item, not as an HTTP error:
// one malformed instance must not void its batch-mates.
type BatchResponse struct {
	Results []SolveResponse `json:"results"`
}

// SolversResponse answers GET /v1/solvers.
type SolversResponse struct {
	Solvers []solver.Info `json:"solvers"`
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status   string  `json:"status"`
	UptimeMS float64 `json:"uptime_ms"`
}

// StatsResponse answers GET /v1/stats.
type StatsResponse struct {
	UptimeMS float64 `json:"uptime_ms"`
	Requests int64   `json:"requests"`
	// WarmHits counts solves seeded from a stored neighbor's solution.
	WarmHits int64              `json:"warm_hits"`
	Cache    CacheStats         `json:"cache"`
	Compiled CompiledCacheStats `json:"compiled"`
	Pool     PoolStats          `json:"pool"`
	// Jobs counts async-job activity (see JobsStats).
	Jobs JobsStats `json:"jobs"`
	// Store describes the durable store; absent without -store.
	Store *store.Stats `json:"store,omitempty"`
	// Cluster counts peer-forwarding activity; absent without -peers.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats is the cluster block of /v1/stats: the static membership
// plus this node's forwarding counters.  Counters are node-local — the
// cluster-wide picture is the sum over members — and every forward ends
// as exactly one of ForwardHits or Fallbacks.
type ClusterStats struct {
	// Self is this node's address in the ring; Peers is the full sorted
	// membership (self included).
	Self  string   `json:"self"`
	Peers []string `json:"peers"`
	// Forwards counts solve requests dispatched to their owner node;
	// ForwardHits counts those the owner answered.
	Forwards    int64 `json:"forwards"`
	ForwardHits int64 `json:"forward_hits"`
	// ForwardCoalesced counts requests that joined an identical request's
	// in-flight forward (the result cache's flight) instead of dispatching
	// their own.
	ForwardCoalesced int64 `json:"forward_coalesced"`
	// Fallbacks counts forwards that failed — the owner unreachable or
	// answering unusably — after which the flight solved locally once for
	// every request riding on it (graceful degradation).
	Fallbacks int64 `json:"fallbacks"`
	// OwnerSolves counts fresh pool solves this node ran for hashes it
	// owns — the cluster-wide dedup metric: N identical requests anywhere
	// in a healthy cluster sum to 1.
	OwnerSolves int64 `json:"owner_solves"`
}

// Error is the unified error envelope: the one shape every /v1/* and
// /internal/v1/* endpoint returns for a non-2xx answer, wrapped as
// {"error": {...}} (errorResponse).  Code is a small stable vocabulary
// for programs (see errCodeFor); Message is for humans; Detail, when
// present, carries context such as the offending identifier.
type Error struct {
	// Code is one of: invalid_request, not_found, method_not_allowed,
	// unavailable, internal.
	Code string `json:"code"`
	// Message describes the failure for humans.
	Message string `json:"message"`
	// Detail optionally narrows the failure (an identifier, a hint).
	Detail string `json:"detail,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error Error `json:"error"`
}

// ProbeResponse answers GET /internal/v1/probe/{hash}: what this node
// holds for a canonical instance hash, so peers (and operators) can ask
// about cluster data placement without triggering any solve.
type ProbeResponse struct {
	// Hash echoes the probed canonical hash; Owner is the member owning
	// it under the current ring; SelfOwned reports whether that is the
	// answering node.
	Hash      string `json:"hash"`
	Owner     string `json:"owner,omitempty"`
	SelfOwned bool   `json:"self_owned"`
	// Results counts completed reports for this hash (any solver/options)
	// in the answering node's result cache; Stored reports whether the
	// durable store holds the instance itself.
	Results int  `json:"results"`
	Stored  bool `json:"stored"`
}

// ClusterHealthResponse answers GET /internal/v1/health: liveness plus
// the ring this node is configured with, so a peer (or the smoke test)
// can detect membership disagreement.
type ClusterHealthResponse struct {
	Status   string   `json:"status"`
	UptimeMS float64  `json:"uptime_ms"`
	Self     string   `json:"self,omitempty"`
	Peers    []string `json:"peers,omitempty"`
}
