// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    c . x
//	subject to  a_i . x (<= | = | >=) b_i       for every constraint i
//	            x >= 0
//
// It is the LP engine behind the approximation algorithms of Section 3 of
// Das et al. (SPAA 2019): the makespan relaxation LP 6-10 and its
// minimum-resource dual-use variant are both solved with it.  The solver
// keeps a full tableau, with Dantzig pricing and a Bland's rule fallback
// that guarantees termination, but its elimination skips zeros: the
// relaxation tableaux stay sparse (on the approximation package's
// BenchmarkMakespanLP instances, 11-16 % of a pivot row and a third to a
// half of a pivot column are nonzero), so a pivot collects the nonzero
// columns of the normalized pivot row into an index list and eliminates
// only at those columns, only in rows whose pivot-column entry is nonzero.
//
// Every entry a pivot touches gets the same floating-point expression a
// dense elimination gives it, and every entry it skips would have changed
// by an exact zero at most.  So pricing, the ratio test and the pivot
// order see the same bits as a dense solver, and every returned value is
// the same; only the sign of a zero entry can differ, and no comparison
// reads it.  Memory stays quadratic: the tableau holds one float per
// constraint per structural, slack or artificial variable.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Op is a constraint relation.
type Op int

// Constraint relations.
const (
	LE Op = iota // a.x <= b
	GE           // a.x >= b
	EQ           // a.x == b
)

// Term is one coefficient of a sparse constraint row or objective.
type Term struct {
	Var  int
	Coef float64
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // values of the structural variables
	Objective float64   // c . X (meaningful only when Status == Optimal)
}

type row struct {
	terms []Term
	op    Op
	b     float64
}

// Problem accumulates an LP instance.
type Problem struct {
	n    int
	obj  []float64
	rows []row
}

// New returns a problem with n non-negative structural variables and an
// all-zero objective.
func New(n int) *Problem {
	return &Problem{n: n, obj: make([]float64, n)}
}

// NumVars reports the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// SetObjective sets the coefficient of variable j in the minimized
// objective.
func (p *Problem) SetObjective(j int, coef float64) {
	p.obj[j] = coef
}

// AddConstraint appends the constraint (sum of terms) op b.  Variables may
// repeat within terms; their coefficients accumulate.
func (p *Problem) AddConstraint(op Op, terms []Term, b float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.n {
			panic(fmt.Sprintf("lp: term references variable %d of %d", t.Var, p.n))
		}
	}
	p.rows = append(p.rows, row{terms: append([]Term(nil), terms...), op: op, b: b})
}

const eps = 1e-8

// maxPivots bounds total pivots as a safety net; the Bland fallback makes
// cycling impossible, so hitting this indicates numerical trouble.
func maxPivots(m, n int) int { return 200 * (m + n + 10) }

// Solve runs two-phase simplex and returns the solution.  The pivot loop
// polls ctx periodically and aborts with ctx.Err() when it is done, so
// long-running relaxations are interruptible and deadline-bounded.
//
// All solve scratch (tableau, reduced costs, basis) comes from a pooled
// workspace, so repeated solves - per approximation pipeline, per service
// worker - reuse their arenas instead of reallocating them.
func (p *Problem) Solve(ctx context.Context) (Solution, error) {
	m := len(p.rows)
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)

	// Pass 1: determine each row's operator after sign normalization and
	// count the slack and artificial columns.  Artificial variables: every
	// row gets one if, after normalization, it lacks a natural basic
	// column.  We keep it simple: GE and EQ rows always get artificials;
	// LE rows with negative b are flipped to GE first.
	nSlack, nArt := 0, 0
	for _, r := range p.rows {
		op := r.op
		if r.b < 0 {
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		switch op {
		case LE, GE:
			nSlack++
		}
		if op == GE || op == EQ {
			nArt++
		}
	}
	// Column layout: [0,n) structural, [n, n+slack) slack/surplus,
	// [n+slack, total) artificial.
	nCols := p.n + nSlack + nArt
	// Arena demand: the tableau rows, two objective vectors, and the
	// simplex's reduced-cost row; the basis and the pivot's nonzero-column
	// list.
	ws.prepare(m*(nCols+1)+2*nCols+(nCols+1), m+nCols+1, m)

	tab := ws.rowSlice(m)
	basis := ws.intSlice(m)
	slackAt, artAt := p.n, p.n+nSlack
	for i, r := range p.rows {
		row := ws.floats(nCols + 1)
		tab[i] = row
		sign, b, op := 1.0, r.b, r.op
		if b < 0 {
			sign, b = -1, -b
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		for _, t := range r.terms {
			row[t.Var] += sign * t.Coef
		}
		row[nCols] = b
		switch op {
		case LE:
			row[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			row[slackAt] = -1
			slackAt++
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			row[artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}
	artStart := p.n + nSlack

	s := &simplex{tab: tab, basis: basis, nCols: nCols, ctx: ctx,
		zbuf: ws.floats(nCols + 1), nz: ws.intSlice(nCols + 1)}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := ws.floats(nCols)
		for j := artStart; j < nCols; j++ {
			phase1[j] = 1
		}
		obj, err := s.run(phase1, -1)
		if err != nil {
			return Solution{}, err
		}
		if obj > 1e-6 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive any artificial still in the basis out of it (it must be
		// at value zero); if its row has no eligible pivot the row is
		// redundant and can be zeroed.
		for i := range s.basis {
			if s.basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(s.tab[i][j]) > eps {
					s.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				for j := range s.tab[i] {
					s.tab[i][j] = 0
				}
			}
		}
	}
	s.forbidden = artStart // artificials may never re-enter

	// Phase 2: the real objective.
	full := ws.floats(nCols)
	copy(full, p.obj)
	obj, err := s.run(full, -1)
	if err != nil {
		if errors.Is(err, errUnbounded) {
			return Solution{Status: Unbounded}, nil
		}
		return Solution{}, err
	}

	x := make([]float64, p.n)
	for i, bv := range s.basis {
		if bv < p.n {
			x[bv] = s.tab[i][nCols]
		}
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

var errUnbounded = errors.New("lp: unbounded")

type simplex struct {
	tab       [][]float64
	basis     []int
	nCols     int
	forbidden int // columns >= forbidden may not enter (0 = none forbidden)
	z         []float64
	zbuf      []float64 // reduced-cost row scratch, reused across phases
	nz        []int     // pivot scratch: nonzero columns of the pivot row
	ctx       context.Context
}

// run minimizes obj over the current tableau.  maxIter < 0 uses the default
// bound.  It returns the objective value.
//
//rt:hotpath — the simplex pivot loop over the pooled arena tableau.
func (s *simplex) run(obj []float64, maxIter int) (float64, error) {
	m, nCols := len(s.tab), s.nCols
	if maxIter < 0 {
		maxIter = maxPivots(m, nCols)
	}
	// Reduced-cost row: z[j] = obj[j] - sum over basic rows of
	// obj[basis[i]] * tab[i][j]; with the tableau kept in canonical form
	// this is exact.  A zero tableau entry leaves z[j] as it is.
	z := s.zbuf
	copy(z, obj)
	z[nCols] = 0
	for i, bv := range s.basis {
		c := obj[bv]
		if c == 0 {
			continue
		}
		for j, a := range s.tab[i] {
			if a != 0 {
				z[j] -= c * a
			}
		}
	}
	s.z = z
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		if s.ctx != nil && iter&63 == 0 {
			if err := s.ctx.Err(); err != nil {
				return 0, err
			}
		}
		col := s.chooseEntering(iter >= blandAfter)
		if col < 0 {
			return -z[nCols], nil
		}
		rowi := s.chooseLeaving(col)
		if rowi < 0 {
			return 0, errUnbounded
		}
		s.pivot(rowi, col)
	}
	return 0, errors.New("lp: pivot limit exceeded (numerical trouble)")
}

// z is maintained by run/pivot as the current reduced-cost row.
// (Stored on the struct so pivot can update it.)
//
//rt:hotpath
func (s *simplex) chooseEntering(bland bool) int {
	limit := s.nCols
	if s.forbidden > 0 {
		limit = s.forbidden
	}
	if bland {
		for j := 0; j < limit; j++ {
			if s.z[j] < -eps {
				return j
			}
		}
		return -1
	}
	best, bestVal := -1, -eps
	for j := 0; j < limit; j++ {
		if s.z[j] < bestVal {
			best, bestVal = j, s.z[j]
		}
	}
	return best
}

//rt:hotpath
func (s *simplex) chooseLeaving(col int) int {
	nCols := s.nCols
	best := -1
	var bestRatio float64
	for i := range s.tab {
		a := s.tab[i][col]
		if a <= eps {
			continue
		}
		ratio := s.tab[i][nCols] / a
		if best == -1 || ratio < bestRatio-eps ||
			(ratio < bestRatio+eps && s.basis[i] < s.basis[best]) {
			best, bestRatio = i, ratio
		}
	}
	return best
}

// pivot makes col basic in row rowi.  Only the nonzero entries of the
// normalized pivot row can move another row, so their columns are listed
// in s.nz first and every elimination - the other rows and the
// reduced-cost row - runs over that list alone.
//
//rt:hotpath
func (s *simplex) pivot(rowi, col int) {
	prow := s.tab[rowi]
	pv := prow[col]
	k := 0
	for j, a := range prow {
		if a != 0 {
			prow[j] = a / pv
			s.nz[k] = j
			k++
		}
	}
	nz := s.nz[:k]
	for i, trow := range s.tab {
		if i == rowi {
			continue
		}
		f := trow[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			trow[j] -= f * prow[j]
		}
	}
	if s.z != nil {
		if f := s.z[col]; f != 0 {
			for _, j := range nz {
				s.z[j] -= f * prow[j]
			}
		}
	}
	s.basis[rowi] = col
}
