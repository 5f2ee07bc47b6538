package service

// Request bodies: every POST handler reads its body with readBody, into
// one buffer sized from Content-Length.  A /v1/solve body is first looked
// up whole in the compiled cache: a body already prepared as a single
// solve is rebuilt from its alias (compiledCache.getBody) and not walked
// at all.  Every other body carrying a SolveRequest (/v1/solve on a body
// miss, /internal/v1/solve, /v1/jobs) is walked once by a reflection-free
// scanner (internal/jsonscan), and each instance stays a sub-slice of
// that buffer: the compiled-cache keys, the instance decode and the
// store's write-through all read the bytes where they arrived.
//
// The decoders are named functions, not UnmarshalJSON methods: solveEnvelope
// and JobRequest embed SolveRequest, and a method on it would be promoted
// to them and drop their own fields.  Each accepts exactly what
// json.NewDecoder(body).Decode accepts into the same type, to the same
// values (FuzzSolveBodyDifferential holds them to it): the first JSON
// value is decoded and any bytes after it are ignored.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"repro/internal/jsonscan"
	"repro/internal/solver"
)

// readBody reads r's body into one buffer, refusing a body over
// s.maxBody, with or without a Content-Length, with *http.MaxBytesError.
// The buffer grows by doubling as bytes arrive, from at most 64 KiB, so a
// client that declares a length and stalls holds no more than it sent;
// a declared length caps the growth, so the buffer ends exactly that
// long.  Buffers are never pooled: decoded requests keep sub-slices of
// them.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > s.maxBody {
		return nil, &http.MaxBytesError{Limit: s.maxBody}
	}
	// MaxBytesReader reads one byte past the limit to detect it.
	limit := s.maxBody + 1
	if r.ContentLength >= 0 {
		limit = r.ContentLength
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	buf := make([]byte, 0, min(limit, 64<<10))
	for int64(len(buf)) < limit {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*int64(cap(buf)), limit))
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if int64(len(buf)) < r.ContentLength {
		return nil, io.ErrUnexpectedEOF
	}
	return buf, nil
}

// decodeBody reads r's body and decodes it with decode; on failure it
// answers 400 and reports false.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (T, bool) {
	body, err := s.readBody(w, r)
	var v T
	if err == nil {
		v, err = decode(body)
	}
	if err != nil {
		writeBadBody(w, err)
		return v, false
	}
	return v, true
}

// writeBadBody answers 400 for a body that does not read or decode.
func writeBadBody(w http.ResponseWriter, err error) {
	writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
}

// bodyScanner starts a scan of a request body: io.EOF when it holds no
// value, as json.Decoder reports.
func bodyScanner(body []byte) (*jsonscan.Scanner, error) {
	s := jsonscan.New(body)
	if s.AtEOF() {
		return nil, io.EOF
	}
	return s, nil
}

// decodeSolveEnvelope decodes the body of POST /v1/solve.
func decodeSolveEnvelope(body []byte) (solveEnvelope, error) {
	var env solveEnvelope
	s, err := bodyScanner(body)
	if err != nil {
		return env, err
	}
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("batch"):
			jsonscan.Slice(s, &env.Batch, func(req *SolveRequest) { scanSolveRequest(s, req) })
		case !solveRequestField(s, &env.SolveRequest):
			s.Skip()
		}
	}
	return env, s.Err()
}

// decodeSolveRequest decodes the body of POST /internal/v1/solve.
func decodeSolveRequest(body []byte) (SolveRequest, error) {
	var req SolveRequest
	s, err := bodyScanner(body)
	if err != nil {
		return req, err
	}
	scanSolveRequest(s, &req)
	return req, s.Err()
}

// scanSolveRequest decodes a SolveRequest object into req.
func scanSolveRequest(s *jsonscan.Scanner, req *SolveRequest) {
	for more := s.Object(); more; more = s.Member() {
		if !solveRequestField(s, req) {
			s.Skip()
		}
	}
}

// decodeJobRequest decodes the body of POST /v1/jobs.
func decodeJobRequest(body []byte) (JobRequest, error) {
	var req JobRequest
	s, err := bodyScanner(body)
	if err != nil {
		return req, err
	}
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("frontier"):
			decodeJobFrontier(s, &req.Frontier)
		case s.Is("priority"):
			s.Int(&req.Priority)
		case !solveRequestField(s, &req.SolveRequest):
			s.Skip()
		}
	}
	return req, s.Err()
}

// decodeFrontierRequest decodes the body of POST /v1/frontier; the sweep
// request keeps encoding/json.
func decodeFrontierRequest(body []byte) (FrontierRequest, error) {
	var req FrontierRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// solveRequestField decodes the current member into req when its key
// names a SolveRequest field, and reports whether it did.
func solveRequestField(s *jsonscan.Scanner, req *SolveRequest) bool {
	switch {
	case s.Is("solver"):
		s.String(&req.Solver)
	case s.Is("instance"):
		req.Instance = s.Raw()
	case s.Is("options"):
		decodeOptions(s, &req.Options)
	default:
		return false
	}
	return true
}

// decodeOptions decodes a solver.WireOptions object.
func decodeOptions(s *jsonscan.Scanner, o *solver.WireOptions) {
	for more := s.Object(); more; more = s.Member() {
		switch {
		case s.Is("budget"):
			decodeInt64Ptr(s, &o.Budget)
		case s.Is("target"):
			decodeInt64Ptr(s, &o.Target)
		case s.Is("alpha"):
			if s.Null() {
				o.Alpha = nil
				continue
			}
			var v float64
			if s.Float64(&v); s.Err() == nil {
				o.Alpha = &v
			}
		case s.Is("max_nodes"):
			s.Int(&o.MaxNodes)
		case s.Is("parallelism"):
			s.Int(&o.Parallelism)
		case s.Is("deadline_ms"):
			s.Int64(&o.DeadlineMS)
		default:
			s.Skip()
		}
	}
}

// decodeInt64Ptr decodes an optional integer: null clears it.
func decodeInt64Ptr(s *jsonscan.Scanner, p **int64) {
	if s.Null() {
		*p = nil
		return
	}
	var v int64
	if s.Int64(&v); s.Err() == nil {
		*p = &v
	}
}

// decodeJobFrontier decodes a frontier job's sweep with encoding/json,
// into the sweep already there for a repeated key.
func decodeJobFrontier(s *jsonscan.Scanner, fr **FrontierRequest) {
	if s.Null() {
		*fr = nil
		return
	}
	raw := s.Raw()
	if s.Err() != nil {
		return
	}
	if *fr == nil {
		*fr = new(FrontierRequest)
	}
	if err := json.Unmarshal(raw, *fr); err != nil {
		s.Fail(err)
	}
}
