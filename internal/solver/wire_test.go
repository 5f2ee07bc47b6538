package solver

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func int64p(v int64) *int64       { return &v }
func float64p(v float64) *float64 { return &v }

func TestWireOptionsResolve(t *testing.T) {
	now := time.Unix(1000, 0)

	o, err := WireOptions{}.Resolve(now)
	if err != nil {
		t.Fatal(err)
	}
	if o.Budget != -1 || o.Target != -1 || o.Alpha != 0.5 || !o.Deadline.IsZero() {
		t.Fatalf("empty wire options must resolve to the defaults, got %+v", o)
	}

	o, err = WireOptions{Budget: int64p(0), Alpha: float64p(0.25),
		MaxNodes: 99, Parallelism: 2, DeadlineMS: 1500}.Resolve(now)
	if err != nil {
		t.Fatal(err)
	}
	if o.Budget != 0 {
		t.Fatal("budget 0 is a meaningful value and must survive decoding")
	}
	if o.Objective() != MinMakespan {
		t.Fatal("budget 0 must select min-makespan mode")
	}
	if o.Alpha != 0.25 || o.MaxNodes != 99 || o.Parallelism != 2 {
		t.Fatalf("knobs lost in decoding: %+v", o)
	}
	if want := now.Add(1500 * time.Millisecond); !o.Deadline.Equal(want) {
		t.Fatalf("Deadline = %v; want %v", o.Deadline, want)
	}

	// The largest accepted values resolve, each to what it says.
	o, err = WireOptions{Budget: int64p(1), Parallelism: MaxWireParallelism, DeadlineMS: maxWireDeadlineMS}.Resolve(now)
	if err != nil {
		t.Fatal(err)
	}
	if o.Parallelism != MaxWireParallelism || !o.Deadline.After(now) {
		t.Fatalf("largest wire values resolved to parallelism %d, deadline %v", o.Parallelism, o.Deadline)
	}

	bad := []WireOptions{
		{Budget: int64p(-3)},
		{Target: int64p(-1)},
		{Alpha: float64p(0)},
		{Alpha: float64p(1)},
		{Alpha: float64p(-0.5)},
		{MaxNodes: -1},
		{DeadlineMS: -20},
		{Parallelism: MaxWireParallelism + 1},
		{DeadlineMS: 10000000000000}, // 10^13 ms: its Duration wraps negative
		{DeadlineMS: maxWireDeadlineMS + 1},
	}
	for i, w := range bad {
		if _, err := w.Resolve(now); err == nil {
			t.Fatalf("bad wire options %d (%+v) resolved without error", i, w)
		}
	}
}

func TestOptionsCacheKeyExcludesDeadlineOnly(t *testing.T) {
	base := NewOptions(WithBudget(4), WithAlpha(0.5))
	sameButLater := base
	sameButLater.Deadline = time.Now().Add(time.Hour)
	if base.CacheKey() != sameButLater.CacheKey() {
		t.Fatal("deadline must not enter the cache key")
	}
	for name, other := range map[string]Options{
		"budget":      NewOptions(WithBudget(5), WithAlpha(0.5)),
		"mode":        NewOptions(WithTarget(4), WithAlpha(0.5)),
		"alpha":       NewOptions(WithBudget(4), WithAlpha(0.75)),
		"maxnodes":    NewOptions(WithBudget(4), WithAlpha(0.5), WithMaxNodes(7)),
		"parallelism": NewOptions(WithBudget(4), WithAlpha(0.5), WithParallelism(3)),
	} {
		if base.CacheKey() == other.CacheKey() {
			t.Fatalf("%s change did not change the cache key", name)
		}
	}
}

func TestInfosCoverRegistry(t *testing.T) {
	infos := Infos()
	byName := make(map[string]Info, len(infos))
	for _, in := range infos {
		byName[in.Name] = in
	}
	ex, ok := byName["exact"]
	if !ok {
		t.Fatal("Infos missing the exact solver")
	}
	if !ex.Budget || !ex.Target || !ex.Exact || !ex.Parallel {
		t.Fatalf("exact info lost capabilities: %+v", ex)
	}
	kw, ok := byName["kway5"]
	if !ok {
		t.Fatal("Infos missing kway5")
	}
	if kw.Target {
		t.Fatal("kway5 must not advertise min-resource mode")
	}
	if len(kw.Classes) != 1 {
		t.Fatalf("kway5 classes = %v; want the kway class", kw.Classes)
	}
	data, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"guarantee"`) {
		t.Fatal("marshaled infos must carry the guarantees")
	}
}

func TestReportWire(t *testing.T) {
	rep := &Report{
		Solver:    "exact",
		Objective: MinResource,
		Exact:     true,
		Complete:  true,
		Nodes:     42,
		Wall:      1500 * time.Microsecond,
	}
	rep.Sol.Makespan = 7
	rep.Sol.Value = 3
	rep.Sol.Flow = []int64{1, 2}
	w := rep.Wire()
	if w.Solver != "exact" || w.Objective != "min-resource" || w.Makespan != 7 ||
		w.Resources != 3 || !w.Exact || !w.Complete || w.Nodes != 42 {
		t.Fatalf("Wire() lost fields: %+v", w)
	}
	if w.WallMS != 1.5 {
		t.Fatalf("WallMS = %v; want 1.5", w.WallMS)
	}
	if len(w.Flow) != 2 {
		t.Fatalf("Flow = %v; want the witness flow", w.Flow)
	}
}
