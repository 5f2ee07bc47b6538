package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestCompileParallelMatchesSequential pins the parallel construction
// contract: the Compiled (every exported field) and its lazily built
// envelopes are BYTE-IDENTICAL whether built by one worker or a gang,
// across the whole scenario corpus and several gang sizes (including
// gangs wider than the arc count, so empty chunks are exercised).  Run
// with -race to also check the gang's write-disjointness.
func TestCompileParallelMatchesSequential(t *testing.T) {
	for _, spec := range scenario.DefaultCorpus() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			inst, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			seq := core.Compile(inst)
			seqEnv := seq.Envelopes()
			for _, workers := range []int{2, 3, 8, 64} {
				restore := core.SetCompileGangForTest(1, workers)
				par := core.Compile(inst)
				parEnv := par.Envelopes()
				restore()
				sv, pv := reflect.ValueOf(seq).Elem(), reflect.ValueOf(par).Elem()
				for i := 0; i < sv.NumField(); i++ {
					f := sv.Type().Field(i)
					if !f.IsExported() {
						continue // lazy memos: compared via Envelopes below
					}
					if !reflect.DeepEqual(sv.Field(i).Interface(), pv.Field(i).Interface()) {
						t.Errorf("workers=%d: field %s diverges from sequential build", workers, f.Name)
					}
				}
				if !reflect.DeepEqual(seqEnv.SegStart, parEnv.SegStart) ||
					!reflect.DeepEqual(seqEnv.R, parEnv.R) ||
					!reflect.DeepEqual(seqEnv.T, parEnv.T) {
					t.Errorf("workers=%d: envelope hulls diverge from sequential build", workers)
				}
				if len(seqEnv.Slope) != len(parEnv.Slope) {
					t.Fatalf("workers=%d: %d slopes vs %d sequential", workers, len(parEnv.Slope), len(seqEnv.Slope))
				}
				for j := range seqEnv.Slope {
					if math.Float64bits(seqEnv.Slope[j]) != math.Float64bits(parEnv.Slope[j]) {
						t.Errorf("workers=%d: slope %d differs bitwise", workers, j)
					}
				}
			}
		})
	}
}

// TestCombineSpace pins the chunk-ordered reduction of the saturating
// assignment-space product against the sequential arc-by-arc fold,
// including the overflow guard (two sub-cap chunks whose product would
// overflow int64 must clamp, not wrap).
func TestCombineSpace(t *testing.T) {
	seqFold := func(counts []int64) int64 {
		acc := int64(1)
		for _, n := range counts {
			if acc < core.SpaceSaturation {
				acc *= n
				if acc > core.SpaceSaturation {
					acc = core.SpaceSaturation
				}
			}
		}
		return acc
	}
	cases := [][]int64{
		{},
		{1, 1, 1},
		{2, 3, 4},
		{1 << 20, 1 << 19},                // product just below the cap
		{1 << 20, 1 << 20},                // product exactly at the cap
		{1 << 20, 1 << 21},                // product just above the cap
		{1 << 30, 1 << 30, 1 << 30},       // saturates on the middle factor
		{core.SpaceSaturation - 1, 2},     // sub-cap chunk, saturating combine
		{3, 5, 7, 11, 13, 17, 19, 23, 29}, // exact odd product
		{1 << 39, 2, 1, 1, 3},             // lands exactly on the cap mid-fold
	}
	// The combine's own overflow guard: two sub-cap chunk products whose
	// raw product would wrap int64 must clamp to the cap, not wrap.
	if got := core.CombineSpaceForTest(core.SpaceSaturation-1, core.SpaceSaturation-1); got != core.SpaceSaturation {
		t.Errorf("combine of two near-cap chunks: got %d, want the cap", got)
	}
	for _, counts := range cases {
		want := seqFold(counts)
		// Fold as chunks of every possible split in two, in order.
		for cut := 0; cut <= len(counts); cut++ {
			got := core.CombineSpaceForTest(seqFold(counts[:cut]), seqFold(counts[cut:]))
			if got != want {
				t.Errorf("counts %v cut %d: combine got %d, sequential fold %d", counts, cut, got, want)
			}
		}
	}
}

// TestCompileParallelLargeSynthetic exercises the REAL size-triggered
// parallel path (forced threshold, default gang sizing) on a synthetic
// instance above the lowered threshold, so the production branch gets
// coverage even where GOMAXPROCS = 1 collapses the gang to one worker.
func TestCompileParallelLargeSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("large synthetic compile")
	}
	restore := core.SetCompileGangForTest(4096, 0)
	defer restore()
	inst := scenario.NewGen(11).StepInstance(40, 16, 4000, 4, 50, 12)
	if m := inst.G.NumEdges(); m < 4096 {
		t.Fatalf("synthetic instance too small: %d arcs", m)
	}
	got := core.Compile(inst)
	restoreSeq := core.SetCompileGangForTest(1<<30, 0) // force the sequential path
	want := core.Compile(inst)
	restoreSeq()
	if !reflect.DeepEqual(got.MinDur, want.MinDur) ||
		got.MinMakespan != want.MinMakespan ||
		got.AssignmentSpace != want.AssignmentSpace ||
		got.MaxUsefulBudget != want.MaxUsefulBudget ||
		got.ExpandedArcs != want.ExpandedArcs ||
		!reflect.DeepEqual(got.InArcs, want.InArcs) ||
		!reflect.DeepEqual(got.OutArcs, want.OutArcs) {
		t.Fatal("size-triggered parallel compile diverges from sequential")
	}
}
