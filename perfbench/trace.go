package main

// Spans recorded by the benchmark around its own calls into each layer.
// They stay in memory during the run and are written out when it ends.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval: a layer call, a client request, or an
// interval derived from a response's timing fields.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Req    int    `json:"req"`    // request id the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer collects the spans of one traced run, from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// add records a finished span and returns its id.
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// do times fn as a span.
func (t *tracer) do(parent, req int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(parent, req, name, start, time.Now())
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children (overlapping children are counted once),
// indexed by span id.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			switch {
			case cur < 0:
				cur, curEnd = lo, hi
			case lo > curEnd:
				covered += curEnd - cur
				cur, curEnd = lo, hi
			case hi > curEnd:
				curEnd = hi
			}
		}
		if cur >= 0 {
			covered += curEnd - cur
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfMS groups span self times by span name, in milliseconds.
func selfMS(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/float64(time.Millisecond))
	}
	return out
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
