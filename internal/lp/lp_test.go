package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func solveOK(t *testing.T, p *Problem) Solution {
	t.Helper()
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v; want optimal", sol.Status)
	}
	return sol
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleLE(t *testing.T) {
	// min -x - y  s.t.  x + y <= 4, x <= 2  => x=2, y=2, obj=-4.
	p := New(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint(LE, []Term{{0, 1}, {1, 1}}, 4)
	p.AddConstraint(LE, []Term{{0, 1}}, 2)
	sol := solveOK(t, p)
	if !approx(sol.Objective, -4) {
		t.Fatalf("objective = %v; want -4", sol.Objective)
	}
	if !approx(sol.X[0]+sol.X[1], 4) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestGEAndEQ(t *testing.T) {
	// min x + y  s.t.  x + 2y >= 6, x = 2  => y = 2, obj = 4.
	p := New(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint(GE, []Term{{0, 1}, {1, 2}}, 6)
	p.AddConstraint(EQ, []Term{{0, 1}}, 2)
	sol := solveOK(t, p)
	if !approx(sol.Objective, 4) || !approx(sol.X[0], 2) || !approx(sol.X[1], 2) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestInfeasible(t *testing.T) {
	p := New(1)
	p.AddConstraint(LE, []Term{{0, 1}}, 1)
	p.AddConstraint(GE, []Term{{0, 1}}, 2)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v; want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(1)
	p.SetObjective(0, -1)
	p.AddConstraint(GE, []Term{{0, 1}}, 1)
	sol, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v; want unbounded", sol.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// min x  s.t.  -x <= -3  (i.e. x >= 3).
	p := New(1)
	p.SetObjective(0, 1)
	p.AddConstraint(LE, []Term{{0, -1}}, -3)
	sol := solveOK(t, p)
	if !approx(sol.X[0], 3) {
		t.Fatalf("x = %v; want 3", sol.X[0])
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	p := New(1)
	p.SetObjective(0, -1)
	p.AddConstraint(LE, []Term{{0, 1}, {0, 1}}, 4)
	sol := solveOK(t, p)
	if !approx(sol.X[0], 2) {
		t.Fatalf("x = %v; want 2", sol.X[0])
	}
}

func TestDegenerateEquality(t *testing.T) {
	// Redundant equalities should not confuse phase 1.
	p := New(2)
	p.SetObjective(0, 1)
	p.AddConstraint(EQ, []Term{{0, 1}, {1, 1}}, 2)
	p.AddConstraint(EQ, []Term{{0, 2}, {1, 2}}, 4) // same constraint doubled
	p.AddConstraint(GE, []Term{{0, 1}}, 1)
	sol := solveOK(t, p)
	if !approx(sol.X[0], 1) || !approx(sol.X[1], 1) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	p := New(2)
	p.AddConstraint(EQ, []Term{{0, 1}, {1, -1}}, 0)
	p.AddConstraint(GE, []Term{{0, 1}}, 5)
	sol := solveOK(t, p)
	if sol.X[0] < 5-1e-9 || !approx(sol.X[0], sol.X[1]) {
		t.Fatalf("sol = %+v", sol)
	}
}

func TestPanicsOnBadVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range variable")
		}
	}()
	New(1).AddConstraint(LE, []Term{{3, 1}}, 1)
}

// TestTransportation solves a classic balanced transportation problem with
// a known optimum.
func TestTransportation(t *testing.T) {
	// Supplies: 20, 30.  Demands: 10, 25, 15.
	// Costs: [2 3 1; 5 4 8].  Known optimal cost = 145.
	//   x00=0  x01=5  x02=15 (cost 15+15=30); x10=10 x11=20 x12=0
	//   cost = 0+15+15 + 50+80 = 160?  Compute via solver and verify
	//   against brute force below instead of a hand value.
	costs := [][]float64{{2, 3, 1}, {5, 4, 8}}
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	p := New(6)
	idx := func(i, j int) int { return i*3 + j }
	for i := range supply {
		var terms []Term
		for j := range demand {
			p.SetObjective(idx(i, j), costs[i][j])
			terms = append(terms, Term{idx(i, j), 1})
		}
		p.AddConstraint(EQ, terms, supply[i])
	}
	for j := range demand {
		var terms []Term
		for i := range supply {
			terms = append(terms, Term{idx(i, j), 1})
		}
		p.AddConstraint(EQ, terms, demand[j])
	}
	sol := solveOK(t, p)

	// Brute-force over integral shipments (optimum is integral here since
	// the constraint matrix is totally unimodular).
	best := math.Inf(1)
	for x00 := 0.0; x00 <= 10; x00++ {
		for x01 := 0.0; x01 <= 20-x00; x01++ {
			x02 := 20 - x00 - x01
			x10 := 10 - x00
			x11 := 25 - x01
			x12 := 15 - x02
			if x02 < 0 || x10 < 0 || x11 < 0 || x12 < 0 {
				continue
			}
			if x10+x11+x12 != 30 {
				continue
			}
			c := 2*x00 + 3*x01 + 1*x02 + 5*x10 + 4*x11 + 8*x12
			if c < best {
				best = c
			}
		}
	}
	if !approx(sol.Objective, best) {
		t.Fatalf("objective = %v; brute force = %v", sol.Objective, best)
	}
}

// TestRandomAgainstEnumeration checks small random LPs with bounded-box
// constraints against grid enumeration of the vertices.
func TestRandomAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		// min c.x s.t. A x <= b, 0 <= x <= 3 with A >= 0 and b >= 0:
		// feasible region nonempty (x=0) and bounded.
		n := 2
		c := []float64{float64(rng.Intn(7) - 3), float64(rng.Intn(7) - 3)}
		var a [][]float64
		var b []float64
		for i := 0; i < 2; i++ {
			a = append(a, []float64{float64(rng.Intn(3)), float64(rng.Intn(3))})
			b = append(b, float64(rng.Intn(6)))
		}
		p := New(n)
		for j := 0; j < n; j++ {
			p.SetObjective(j, c[j])
			p.AddConstraint(LE, []Term{{j, 1}}, 3)
		}
		for i := range a {
			p.AddConstraint(LE, []Term{{0, a[i][0]}, {1, a[i][1]}}, b[i])
		}
		sol := solveOK(t, p)

		// The optimum of an LP over this region is attained at a vertex;
		// a fine grid scan gives a sound lower-bound check.
		best := math.Inf(1)
		const step = 0.25
		for x := 0.0; x <= 3; x += step {
			for y := 0.0; y <= 3; y += step {
				ok := true
				for i := range a {
					if a[i][0]*x+a[i][1]*y > b[i]+1e-9 {
						ok = false
						break
					}
				}
				if ok {
					if v := c[0]*x + c[1]*y; v < best {
						best = v
					}
				}
			}
		}
		if sol.Objective > best+1e-6 {
			t.Fatalf("trial %d: objective %v worse than grid %v", trial, sol.Objective, best)
		}
	}
}

// densePivot is the reference elimination pivot must match: every row
// with a nonzero pivot-column entry, and the reduced-cost row, is updated
// at every column, zeros included.
func densePivot(tab [][]float64, z []float64, rowi, col int) {
	nCols := len(tab[rowi]) - 1
	prow := tab[rowi]
	pv := prow[col]
	for j := 0; j <= nCols; j++ {
		prow[j] /= pv
	}
	for i := range tab {
		if i == rowi {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		trow := tab[i]
		for j := 0; j <= nCols; j++ {
			trow[j] -= f * prow[j]
		}
	}
	if z != nil {
		f := z[col]
		if f != 0 {
			for j := 0; j <= nCols; j++ {
				z[j] -= f * prow[j]
			}
		}
	}
}

// sameBits reports whether a and b carry the same bits, counting +0 and -0
// as equal: the only difference pivot may make is the sign of a zero.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

// randomRow fills a row of n entries at the given density with values of
// mixed sign and magnitude; a fifth of the remaining entries are -0.
func randomRow(rng *rand.Rand, n int, density float64) []float64 {
	r := make([]float64, n)
	for j := range r {
		switch {
		case rng.Float64() < density:
			r[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		case rng.Intn(5) == 0:
			r[j] = math.Copysign(0, -1)
		}
	}
	return r
}

// TestPivotMatchesDenseBits applies chains of admissible pivots to random
// sparse tableaux, with pivot and with densePivot on a copy, and requires
// every tableau and reduced-cost entry to keep the reference's bits.
func TestPivotMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		m, nCols := 3+rng.Intn(20), 4+rng.Intn(40)
		density := 0.05 + 0.35*rng.Float64()
		tab := make([][]float64, m)
		ref := make([][]float64, m)
		for i := range tab {
			tab[i] = randomRow(rng, nCols+1, density)
			ref[i] = append([]float64(nil), tab[i]...)
		}
		z := randomRow(rng, nCols+1, density)
		refZ := append([]float64(nil), z...)
		s := &simplex{tab: tab, basis: make([]int, m), nCols: nCols, z: z, nz: make([]int, nCols+1)}
		for step := 0; step < 2*m; step++ {
			rowi := rng.Intn(m)
			var cols []int
			for j := 0; j < nCols; j++ {
				if math.Abs(tab[rowi][j]) > eps {
					cols = append(cols, j)
				}
			}
			if len(cols) == 0 {
				continue
			}
			col := cols[rng.Intn(len(cols))]
			s.pivot(rowi, col)
			densePivot(ref, refZ, rowi, col)
			for i := range tab {
				for j := range tab[i] {
					if !sameBits(tab[i][j], ref[i][j]) {
						t.Fatalf("trial %d step %d pivot (%d,%d): tab[%d][%d] = %v; dense %v",
							trial, step, rowi, col, i, j, tab[i][j], ref[i][j])
					}
				}
			}
			for j := range z {
				if !sameBits(z[j], refZ[j]) {
					t.Fatalf("trial %d step %d pivot (%d,%d): z[%d] = %v; dense %v",
						trial, step, rowi, col, j, z[j], refZ[j])
				}
			}
			if s.basis[rowi] != col {
				t.Fatalf("trial %d step %d: basis[%d] = %d; want %d", trial, step, rowi, s.basis[rowi], col)
			}
		}
	}
}

// TestReducedCostsMatchDenseBits checks run's reduced-cost rebuild, which
// skips zero tableau entries, against the dense sum over every entry.
func TestReducedCostsMatchDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		m, nCols := 3+rng.Intn(20), 4+rng.Intn(40)
		density := 0.05 + 0.35*rng.Float64()
		tab := make([][]float64, m)
		basis := make([]int, m)
		for i := range tab {
			tab[i] = randomRow(rng, nCols+1, density)
			basis[i] = rng.Intn(nCols)
		}
		obj := randomRow(rng, nCols, density)
		want := make([]float64, nCols+1)
		copy(want, obj)
		for i, bv := range basis {
			if c := obj[bv]; c != 0 {
				for j := 0; j <= nCols; j++ {
					want[j] -= c * tab[i][j]
				}
			}
		}
		s := &simplex{tab: tab, basis: basis, nCols: nCols, zbuf: make([]float64, nCols+1)}
		// No pivots allowed: run only prices, then reports the pivot limit.
		if _, err := s.run(obj, 0); err == nil {
			t.Fatal("run with no pivots allowed: want pivot-limit error")
		}
		for j := range want {
			if !sameBits(s.z[j], want[j]) {
				t.Fatalf("trial %d: z[%d] = %v; dense %v", trial, j, s.z[j], want[j])
			}
		}
	}
}

// BenchmarkSolveReuse measures steady-state solving of one LP shape: with
// the pooled workspace the tableau arenas are reused across solves, so
// allocs/op stays flat regardless of problem size (the allocs gate in CI
// watches this).
func BenchmarkSolveReuse(b *testing.B) {
	build := func() *Problem {
		// A chain-structured LP shaped like the makespan relaxations:
		// 40 variables, ~80 mixed constraints.
		p := New(40)
		for i := 0; i < 39; i++ {
			p.AddConstraint(LE, []Term{{Var: i, Coef: 1}, {Var: i + 1, Coef: -0.5}}, float64(5+i%7))
			p.AddConstraint(GE, []Term{{Var: i, Coef: 1}, {Var: i + 1, Coef: 1}}, 1)
		}
		for i := 0; i < 40; i++ {
			p.SetObjective(i, 1+float64(i%3))
		}
		return p
	}
	p := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := p.Solve(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if sol.Status != Optimal {
			b.Fatalf("status %v", sol.Status)
		}
	}
}
