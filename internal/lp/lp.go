// Package lp implements a small dense linear-program solver used by the
// energy optimizer (paper Eqns (4)–(7)).
//
// The solver handles problems of the form
//
//	minimize    cᵀx
//	subject to  A_i·x (≤ | = | ≥) b_i     for each row i
//	            x ≥ 0
//
// via the two-phase primal simplex method with Bland's anti-cycling rule.
// The problems the controller solves are tiny (two constraint rows, up to
// a few hundred variables), so a dense tableau is both simple and fast.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one constraint row.
type Relation int

// Constraint senses.
const (
	LE Relation = iota // A_i·x ≤ b_i
	EQ                 // A_i·x = b_i
	GE                 // A_i·x ≥ b_i
)

func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Relation(%d)", int(r))
}

// Problem is a linear program in inequality form with non-negative
// variables.
type Problem struct {
	C   []float64   // objective coefficients, length n
	A   [][]float64 // constraint matrix, m rows × n cols
	B   []float64   // right-hand sides, length m
	Rel []Relation  // sense of each row, length m
}

// Solution is the result of a successful solve.
type Solution struct {
	X          []float64 // optimal variable values, length n
	Objective  float64   // cᵀx at the optimum
	Iterations int       // simplex pivots performed
}

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrBadShape   = errors.New("lp: inconsistent problem dimensions")
	ErrNumeric    = errors.New("lp: non-finite coefficient")
)

const eps = 1e-9

// Validate checks dimensional consistency and finiteness.
func (p *Problem) Validate() error {
	n := len(p.C)
	m := len(p.A)
	if len(p.B) != m || len(p.Rel) != m {
		return fmt.Errorf("%w: %d rows in A, %d in B, %d in Rel", ErrBadShape, m, len(p.B), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("%w: row %d has %d cols, want %d", ErrBadShape, i, len(row), n)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: A[%d][%d]=%v", ErrNumeric, i, j, v)
			}
		}
	}
	for i, v := range p.B {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: B[%d]=%v", ErrNumeric, i, v)
		}
	}
	for j, v := range p.C {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: C[%d]=%v", ErrNumeric, j, v)
		}
	}
	return nil
}

// tableau is the dense simplex tableau. Columns are laid out as
// [structural | slack/surplus | artificial | rhs]; row 0..m-1 are
// constraints, the cost row is kept separately.
type tableau struct {
	m, n       int // constraint rows, structural columns
	nSlack     int
	nArt       int
	rows       [][]float64 // m rows, width = n + nSlack + nArt + 1
	basis      []int       // basic column per row
	zbuf       []float64   // reducedCosts scratch, length = width
	iterations int
}

func (t *tableau) width() int { return t.n + t.nSlack + t.nArt + 1 }

func (t *tableau) rhsCol() int { return t.width() - 1 }

// pivot performs a Gauss-Jordan pivot at (r, c).
func (t *tableau) pivot(r, c int) {
	t.iterations++
	w := t.width()
	pr := t.rows[r]
	pv := pr[c]
	inv := 1 / pv
	for j := 0; j < w; j++ {
		pr[j] *= inv
	}
	pr[c] = 1 // kill rounding residue on the pivot element
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		row := t.rows[i]
		f := row[c]
		if f == 0 {
			continue
		}
		for j := 0; j < w; j++ {
			row[j] -= f * pr[j]
		}
		row[c] = 0
	}
	t.basis[r] = c
}

// reducedCosts computes the cost row z_j - c_j for objective vector cost
// (length width-1) given the current basis, returning the row and the
// current objective value.
func (t *tableau) reducedCosts(cost []float64) ([]float64, float64) {
	w := t.width()
	z := t.zbuf[:w]
	for j := range z {
		z[j] = 0
	}
	for i := 0; i < t.m; i++ {
		cb := cost[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < w; j++ {
			z[j] += cb * row[j]
		}
	}
	obj := z[w-1]
	for j := 0; j < w-1; j++ {
		z[j] -= cost[j]
	}
	return z, obj
}

// iterate runs primal simplex minimizing cost over allowed columns until
// optimal. Bland's rule: entering column is the lowest index with
// positive z_j - c_j; leaving row is the lowest-index tie in the min
// ratio test.
func (t *tableau) iterate(cost []float64, allowed func(j int) bool) error {
	const maxIters = 100000
	for it := 0; it < maxIters; it++ {
		z, _ := t.reducedCosts(cost)
		enter := -1
		for j := 0; j < t.width()-1; j++ {
			if !allowed(j) {
				continue
			}
			if z[j] > eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return nil // optimal
		}
		leave := -1
		best := math.Inf(1)
		rhs := t.rhsCol()
		for i := 0; i < t.m; i++ {
			a := t.rows[i][enter]
			if a > eps {
				ratio := t.rows[i][rhs] / a
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return ErrUnbounded
		}
		t.pivot(leave, enter)
	}
	return errors.New("lp: iteration limit exceeded (cycling?)")
}

// Solve solves the problem with the two-phase simplex method.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, n := len(p.A), len(p.C)

	// Count slack and artificial columns.
	nSlack := 0
	for _, r := range p.Rel {
		if r == LE || r == GE {
			nSlack++
		}
	}
	// Normalize rows to b >= 0 while building.
	w := n + nSlack + m + 1
	cells := make([]float64, m*w)
	t := &tableau{m: m, n: n, nSlack: nSlack, nArt: m,
		rows: make([][]float64, m), basis: make([]int, m), zbuf: make([]float64, w)}

	slackIdx := 0
	for i := 0; i < m; i++ {
		row := cells[i*w : (i+1)*w]
		t.rows[i] = row
		sign := 1.0
		if p.B[i] < 0 {
			sign = -1
		}
		for j := 0; j < n; j++ {
			row[j] = sign * p.A[i][j]
		}
		row[w-1] = sign * p.B[i]
		switch p.Rel[i] {
		case LE:
			row[n+slackIdx] = sign * 1
			slackIdx++
		case GE:
			row[n+slackIdx] = sign * -1
			slackIdx++
		case EQ:
			// no slack
		default:
			return nil, fmt.Errorf("lp: unknown relation %v in row %d", p.Rel[i], i)
		}
		// Artificial variable for every row gives a trivially feasible
		// phase-1 start; slack columns that happen to form an identity
		// will drive the artificials out quickly.
		row[n+nSlack+i] = 1
		t.basis[i] = n + nSlack + i
	}

	// Phase 1: minimize sum of artificials.
	phase1 := make([]float64, w)
	for j := n + nSlack; j < w-1; j++ {
		phase1[j] = 1
	}
	if err := t.iterate(phase1, func(j int) bool { return true }); err != nil {
		return nil, err
	}
	if _, obj := t.reducedCosts(phase1); obj > 1e-6 {
		return nil, ErrInfeasible
	}
	// Drive any artificial still in the basis out (degenerate case).
	for i := 0; i < m; i++ {
		if t.basis[i] >= n+nSlack {
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(t.rows[i][j]) > eps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial basic at value 0.
				continue
			}
		}
	}

	// Phase 2: minimize the real objective, artificials barred.
	phase2 := make([]float64, w)
	copy(phase2, p.C)
	barArt := func(j int) bool { return j < n+nSlack }
	if err := t.iterate(phase2, barArt); err != nil {
		return nil, err
	}

	x := make([]float64, n)
	rhs := t.rhsCol()
	for i := 0; i < m; i++ {
		if t.basis[i] < n {
			v := t.rows[i][rhs]
			if v < 0 && v > -1e-7 {
				v = 0
			}
			x[t.basis[i]] = v
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Solution{X: x, Objective: obj, Iterations: t.iterations}, nil
}
