// Package sp implements Section 3.4 of Das et al. (SPAA 2019): an exact
// pseudo-polynomial algorithm for the discrete resource-time tradeoff
// problem with resource reuse over paths on two-terminal series-parallel
// DAGs.
//
// A series-parallel instance is given as a decomposition tree whose leaves
// are jobs (duration functions) and whose internal nodes are series or
// parallel compositions.  The dynamic program computes
//
//	T(v, l) = makespan of the sub-DAG under v using l units of resource
//
// bottom-up: leaves evaluate their duration function; series compositions
// add child makespans under the same l (the same units flow through both
// parts - this is exactly resource reuse over a path); parallel
// compositions split l between the two branches, taking the worse branch.
// Total time is O(m B^2) for m tree nodes and budget B, matching the
// paper's bound.
package sp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/duration"
)

// Kind distinguishes decomposition-tree node types.
type Kind int

// Tree node kinds.
const (
	LeafKind Kind = iota
	SeriesKind
	ParallelKind
)

// Tree is a series-parallel decomposition tree.
type Tree struct {
	Kind Kind
	Fn   duration.Func // LeafKind only
	L, R *Tree         // SeriesKind and ParallelKind only
}

// Leaf returns a decomposition-tree leaf for one job.
func Leaf(fn duration.Func) *Tree { return &Tree{Kind: LeafKind, Fn: fn} }

// Series composes two subtrees in series (sink of l identified with source
// of r).
func Series(l, r *Tree) *Tree { return &Tree{Kind: SeriesKind, L: l, R: r} }

// Parallel composes two subtrees in parallel (sources identified, sinks
// identified).
func Parallel(l, r *Tree) *Tree { return &Tree{Kind: ParallelKind, L: l, R: r} }

// Leaves returns the number of jobs in the tree.
func (t *Tree) Leaves() int {
	if t.Kind == LeafKind {
		return 1
	}
	return t.L.Leaves() + t.R.Leaves()
}

// Nodes returns the number of decomposition-tree nodes.
func (t *Tree) Nodes() int {
	if t.Kind == LeafKind {
		return 1
	}
	return 1 + t.L.Nodes() + t.R.Nodes()
}

// Validate checks structural invariants.
func (t *Tree) Validate() error {
	switch t.Kind {
	case LeafKind:
		if t.Fn == nil {
			return errors.New("sp: leaf with nil duration function")
		}
		if t.L != nil || t.R != nil {
			return errors.New("sp: leaf with children")
		}
		return nil
	case SeriesKind, ParallelKind:
		if t.L == nil || t.R == nil {
			return errors.New("sp: composition with missing child")
		}
		if err := t.L.Validate(); err != nil {
			return err
		}
		return t.R.Validate()
	default:
		return fmt.Errorf("sp: unknown node kind %d", t.Kind)
	}
}

// ToInstance materializes the two-terminal series-parallel DAG the tree
// denotes as an activity-on-arc instance.  leafArc maps each leaf to its
// arc ID in the instance.
func (t *Tree) ToInstance() (*core.Instance, map[*Tree]int, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	g := dag.New()
	leafArc := make(map[*Tree]int)
	var fns []duration.Func
	var build func(node *Tree, from, to int)
	build = func(node *Tree, from, to int) {
		switch node.Kind {
		case LeafKind:
			id := g.AddEdge(from, to)
			leafArc[node] = id
			fns = append(fns, node.Fn)
		case SeriesKind:
			mid := g.AddNode("m")
			build(node.L, from, mid)
			build(node.R, mid, to)
		case ParallelKind:
			build(node.L, from, to)
			build(node.R, from, to)
		}
	}
	s := g.AddNode("s")
	snk := g.AddNode("t")
	build(t, s, snk)
	inst, err := core.NewInstance(g, fns)
	if err != nil {
		return nil, nil, err
	}
	return inst, leafArc, nil
}

// Tables holds the DP tables of every subtree, enabling both optimization
// directions and allocation extraction.
type Tables struct {
	Root   *Tree
	Budget int64
	table  map[*Tree][]int64
}

// maxTableCells caps the tables' size: Solve keeps one row of budget+1
// int64 cells per decomposition-tree node, so without a cap the budget
// alone would size the allocation (1<<26 cells is 512 MiB).  auto routes
// to spdp only when nodes·(B+1)² is at most 1<<26, so no auto-routed
// solve reaches the cap.
const maxTableCells = 1 << 26

// Solve runs the Section 3.4 dynamic program up to the given budget and
// returns the filled tables.  The table fill polls ctx between rows, so
// large-budget DPs are interruptible and deadline-bounded.  A tree and
// budget whose tables would exceed maxTableCells cells are refused before
// anything is allocated.
func Solve(ctx context.Context, t *Tree, budget int64) (*Tables, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if budget < 0 {
		return nil, fmt.Errorf("sp: negative budget %d", budget)
	}
	// nodes·(budget+1) > maxTableCells, written as budget >= cap/nodes so
	// that budget+1 cannot overflow.
	if nodes := int64(t.Nodes()); budget >= maxTableCells/nodes {
		return nil, fmt.Errorf("sp: budget %d needs %d DP rows of budget+1 cells, over the %d-cell cap", budget, nodes, maxTableCells)
	}
	tb := &Tables{Root: t, Budget: budget, table: make(map[*Tree][]int64)}
	if _, err := tb.fill(ctx, t); err != nil {
		return nil, err
	}
	return tb, nil
}

func (tb *Tables) fill(ctx context.Context, t *Tree) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	row := make([]int64, tb.Budget+1)
	switch t.Kind {
	case LeafKind:
		for l := int64(0); l <= tb.Budget; l++ {
			row[l] = t.Fn.Eval(l)
		}
	case SeriesKind:
		a, err := tb.fill(ctx, t.L)
		if err != nil {
			return nil, err
		}
		b, err := tb.fill(ctx, t.R)
		if err != nil {
			return nil, err
		}
		for l := range row {
			row[l] = a[l] + b[l]
		}
	case ParallelKind:
		a, err := tb.fill(ctx, t.L)
		if err != nil {
			return nil, err
		}
		b, err := tb.fill(ctx, t.R)
		if err != nil {
			return nil, err
		}
		for l := int64(0); l <= tb.Budget; l++ {
			// The split scan is the DP's quadratic part; poll between
			// rows so a deadline interrupts within O(budget) work.
			if l&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			best := int64(1) << 62
			for i := int64(0); i <= l; i++ {
				m := a[i]
				if b[l-i] > m {
					m = b[l-i]
				}
				if m < best {
					best = m
				}
			}
			row[l] = best
		}
	}
	tb.table[t] = row
	return row, nil
}

// Makespan returns T(root, l): the optimal makespan with l units.
func (tb *Tables) Makespan(l int64) (int64, error) {
	if l < 0 || l > tb.Budget {
		return 0, fmt.Errorf("sp: budget %d outside solved range [0, %d]", l, tb.Budget)
	}
	return tb.table[tb.Root][l], nil
}

// MinResource returns the least budget l <= solved budget achieving
// makespan <= target, or ok=false if none does.
func (tb *Tables) MinResource(target int64) (int64, bool) {
	row := tb.table[tb.Root]
	for l := int64(0); l <= tb.Budget; l++ {
		if row[l] <= target {
			return l, true
		}
	}
	return 0, false
}

// Allocation extracts a per-leaf resource assignment achieving
// T(root, budget).
func (tb *Tables) Allocation(budget int64) (map[*Tree]int64, error) {
	alloc := make(map[*Tree]int64)
	if err := tb.walk(budget, func(leaf *Tree, l int64) { alloc[leaf] = l }); err != nil {
		return nil, err
	}
	return alloc, nil
}

// Flow converts the optimal table solution at the given budget into a
// valid flow on inst, putting each leaf's units on the arc leafArc maps it
// to.
func (tb *Tables) Flow(inst *core.Instance, leafArc map[*Tree]int, budget int64) ([]int64, error) {
	f := make([]int64, inst.G.NumEdges())
	if err := tb.walk(budget, func(leaf *Tree, l int64) { f[leafArc[leaf]] = l }); err != nil {
		return nil, err
	}
	return f, nil
}

// walk hands each leaf the units the optimal table solution at budget
// routes through it, walking the tables top-down: the budget routed into
// a series composition traverses both halves (reuse over the path), and a
// parallel composition splits it by the table's best split.
func (tb *Tables) walk(budget int64, leaf func(t *Tree, l int64)) error {
	if budget < 0 || budget > tb.Budget {
		return fmt.Errorf("sp: budget %d outside solved range [0, %d]", budget, tb.Budget)
	}
	var rec func(t *Tree, l int64)
	rec = func(t *Tree, l int64) {
		switch t.Kind {
		case LeafKind:
			leaf(t, l)
		case SeriesKind:
			rec(t.L, l)
			rec(t.R, l)
		case ParallelKind:
			a, b := tb.table[t.L], tb.table[t.R]
			want := tb.table[t][l]
			for i := int64(0); i <= l; i++ {
				m := a[i]
				if b[l-i] > m {
					m = b[l-i]
				}
				if m == want {
					rec(t.L, i)
					rec(t.R, l-i)
					return
				}
			}
			panic("sp: table inconsistency") // unreachable
		}
	}
	rec(tb.Root, budget)
	return nil
}
