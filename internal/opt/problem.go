// Package opt is a small, dependency-free nonlinear optimization library
// built for the low-dimensional constrained programs of the energy-delay
// framework: (P1) minimize energy subject to a delay cap, (P2) minimize
// delay subject to an energy budget, and the Nash-bargaining program (P4).
//
// The problems are 1-3 dimensional, smooth, and cheap to evaluate, so the
// package favours robust derivative-free methods: refining grid search
// for global structure and Nelder-Mead with penalty functions for polish.
// Both are deterministic for a given input.
package opt

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a point in parameter space.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	return append(Vector(nil), v...)
}

// Func is a scalar function of a parameter vector. Implementations may
// return +Inf to mark a point as unusable; they must not panic.
type Func func(Vector) float64

// Constraint is an inequality constraint, satisfied when F(x) <= 0.
type Constraint struct {
	// F is the constraint function; feasible points have F(x) <= 0.
	F Func
}

// Bounds is an axis-aligned box. Every solver in this package works on a
// bounded domain.
type Bounds struct {
	Lo, Hi Vector
}

// Dim returns the dimensionality of the box.
func (b Bounds) Dim() int { return len(b.Lo) }

// Validate reports whether the box is well formed and non-degenerate.
func (b Bounds) Validate() error {
	if len(b.Lo) == 0 {
		return errors.New("opt: empty bounds")
	}
	if len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("opt: bounds dimension mismatch: %d vs %d", len(b.Lo), len(b.Hi))
	}
	for i := range b.Lo {
		if !(b.Lo[i] < b.Hi[i]) {
			return fmt.Errorf("opt: bounds[%d]: lo %v must be below hi %v", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Contains reports whether x lies inside the box (inclusive).
func (b Bounds) Contains(x Vector) bool {
	if len(x) != b.Dim() {
		return false
	}
	for i := range x {
		if x[i] < b.Lo[i] || x[i] > b.Hi[i] {
			return false
		}
	}
	return true
}

// Width returns the per-dimension widths of the box.
func (b Bounds) Width() Vector {
	w := make(Vector, b.Dim())
	for i := range w {
		w[i] = b.Hi[i] - b.Lo[i]
	}
	return w
}

// PointFunc evaluates one candidate point: the objective value f and
// the total constraint violation viol (zero when x is feasible, +Inf
// when a constraint is NaN). Every solver gets both from one call, so
// work a point's objective and constraints share is done once.
type PointFunc func(x Vector) (f, viol float64)

// Problem is a bounded, inequality-constrained minimization problem.
type Problem struct {
	// Eval returns the objective, which is minimized, and the total
	// constraint violation at a point.
	Eval PointFunc
	// Bounds delimit the search box; solvers never evaluate outside it.
	Bounds Bounds
}

// Validate reports whether the problem is well formed.
func (p Problem) Validate() error {
	if p.Eval == nil {
		return errors.New("opt: nil point function")
	}
	return p.Bounds.Validate()
}

// Violation returns the total positive violation of cons at x, zero
// when x satisfies them all. NaN constraint values count as infinite
// violation.
func Violation(x Vector, cons []Constraint) float64 {
	total := 0.0
	for _, c := range cons {
		total = AddViolation(total, c.F(x))
	}
	return total
}

// AddViolation adds one constraint value g(x) to a running violation
// total: a positive value adds, a non-positive one is satisfied, and a
// NaN makes the total +Inf.
func AddViolation(total, g float64) float64 {
	if math.IsNaN(g) {
		return math.Inf(1)
	}
	if g > 0 {
		total += g
	}
	return total
}

// Result is the outcome of a solver run.
type Result struct {
	// X is the best point found.
	X Vector
	// F is the objective value at X.
	F float64
	// Violation is the total constraint violation at X (0 when feasible).
	Violation float64
}

// ErrInfeasible is returned when no point satisfying the constraints
// exists within the search box (to the feasibility tolerance).
var ErrInfeasible = errors.New("opt: no feasible point in the search box")

// isWorse reports whether b is a strictly better candidate than a under
// the standard lexicographic rule: feasibility (to feasTol) first, then
// objective among feasible points, then violation among infeasible ones.
// NaN objectives are treated as +Inf.
func isWorse(aF, aViol, bF, bViol float64) bool {
	if math.IsNaN(aF) {
		aF = math.Inf(1)
	}
	if math.IsNaN(bF) {
		bF = math.Inf(1)
	}
	aFeas, bFeas := aViol <= feasTol, bViol <= feasTol
	switch {
	case aFeas && bFeas:
		return bF < aF
	case aFeas != bFeas:
		return bFeas
	default:
		return bViol < aViol
	}
}
