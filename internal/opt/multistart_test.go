package opt

import (
	"math"

	"github.com/edmac-project/edmac/internal/lazyrand"
)

// The helpers below build test problems and an independent solver to
// cross-check Solve against.

// Constrained builds the point function of minimizing objective subject
// to the constraints cons (g(x) <= 0). It returns nil, which Validate
// rejects, when objective or a constraint function is nil.
func Constrained(objective Func, cons ...Constraint) PointFunc {
	if objective == nil {
		return nil
	}
	for _, c := range cons {
		if c.F == nil {
			return nil
		}
	}
	return func(x Vector) (float64, float64) {
		return objective(x), Violation(x, cons)
	}
}

// AtMost builds the constraint f(x) <= limit.
func AtMost(f Func, limit float64) Constraint {
	return Constraint{F: func(x Vector) float64 { return f(x) - limit }}
}

// Center returns the midpoint of the box.
func (b Bounds) Center() Vector {
	c := make(Vector, b.Dim())
	for i := range c {
		c[i] = 0.5 * (b.Lo[i] + b.Hi[i])
	}
	return c
}

// multiStartWeight is MultiStart's fixed exact-penalty weight.
const multiStartWeight = 1e7

// MultiStart runs Nelder-Mead with an exact penalty from `starts` points
// sampled uniformly from the box (deterministically for a given seed)
// plus the box centre, and returns the lexicographically best outcome.
// It is a solving strategy independent of Solve's lattice search.
func MultiStart(p Problem, starts int, seed int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if starts < 1 {
		starts = 1
	}
	rng := lazyrand.New(seed)
	pen := penalized(p.Eval, multiStartWeight)

	dim := p.Bounds.Dim()
	best := Result{F: math.Inf(1), Violation: math.Inf(1)}
	try := func(x0 Vector) {
		r := NelderMead(pen, x0, p.Bounds)
		f, viol := p.Eval(r.X)
		if isWorse(best.F, best.Violation, f, viol) {
			best = Result{X: r.X.Clone(), F: f, Violation: viol}
		}
	}
	try(p.Bounds.Center())
	for s := 1; s < starts; s++ {
		x0 := make(Vector, dim)
		for i := range x0 {
			x0[i] = p.Bounds.Lo[i] + rng.Float64()*(p.Bounds.Hi[i]-p.Bounds.Lo[i])
		}
		try(x0)
	}
	if best.Violation > feasTol {
		return best, ErrInfeasible
	}
	return best, nil
}
