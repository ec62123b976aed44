package opt

import (
	"fmt"
	"math"
)

// Solve's settings. Every program of the framework is solved with them.
const (
	// refinements is how many times the lattice zooms into the best cell.
	refinements = 8
	// feasTol is the total constraint violation up to which a point
	// counts as feasible.
	feasTol = 1e-9
)

// gridPoints is the lattice size per dimension of the grid phase.
func gridPoints(dim int) int {
	if dim == 1 {
		return 65
	}
	return 17
}

// Solve minimizes the constrained problem p with a deterministic global
// strategy suited to the framework's smooth, low-dimensional programs:
//
//  1. a refining lattice search over the bounded box locates the basin,
//     comparing candidates feasibility-first;
//  2. Nelder-Mead with an escalating exact-penalty weight polishes the
//     best grid point.
//
// Solve returns ErrInfeasible when no point in the box satisfies the
// constraints to within the feasibility tolerance.
func Solve(p Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}

	best := polishPhase(p.Bounds, p.Eval, gridPhase(p.Bounds, p.Eval))
	if best.Violation > feasTol {
		return best, fmt.Errorf("%w: best residual violation %.3g", ErrInfeasible, best.Violation)
	}
	return best, nil
}

// gridPhase runs the refining lattice search and returns its best point.
func gridPhase(bounds Bounds, eval PointFunc) Result {
	dim := bounds.Dim()
	points := gridPoints(dim)
	box := Bounds{Lo: bounds.Lo.Clone(), Hi: bounds.Hi.Clone()}
	best := Result{F: math.Inf(1), Violation: math.Inf(1)}

	idx := make([]int, dim)
	x := make(Vector, dim)
	for pass := 0; pass <= refinements; pass++ {
		for i := range idx {
			idx[i] = 0
		}
		for {
			for i := 0; i < dim; i++ {
				frac := float64(idx[i]) / float64(points-1)
				x[i] = box.Lo[i] + frac*(box.Hi[i]-box.Lo[i])
			}
			f, viol := eval(x)
			if isWorse(best.F, best.Violation, f, viol) {
				best = Result{X: x.Clone(), F: f, Violation: viol}
			}
			// Advance the mixed-radix counter.
			carry := dim - 1
			for carry >= 0 {
				idx[carry]++
				if idx[carry] < points {
					break
				}
				idx[carry] = 0
				carry--
			}
			if carry < 0 {
				break
			}
		}
		// Zoom: new box spans two cells around the incumbent, clamped to
		// the original bounds.
		for i := 0; i < dim; i++ {
			cell := (box.Hi[i] - box.Lo[i]) / float64(points-1)
			lo := best.X[i] - 2*cell
			hi := best.X[i] + 2*cell
			if lo < bounds.Lo[i] {
				lo = bounds.Lo[i]
			}
			if hi > bounds.Hi[i] {
				hi = bounds.Hi[i]
			}
			box.Lo[i], box.Hi[i] = lo, hi
		}
	}
	return best
}

// polishPhase refines the incumbent with Nelder-Mead under an escalating
// exact penalty, keeping the lexicographically best point seen.
//
// It stops escalating early, with the result unchanged, once a run
// leaves the incumbent where it was, every point that run evaluated had
// a violation of exactly 0 or +Inf, and every weight left is finite. At
// such a point the penalized value does not depend on the weight: it is
// f + w·0 = f for any finite w, or +Inf. Each later run would start
// from the same incumbent and see the same values, so Nelder-Mead,
// being deterministic, would evaluate the same points and return the
// same one, which again would not move the incumbent.
func polishPhase(bounds Bounds, eval PointFunc, incumbent Result) Result {
	scale := math.Abs(incumbent.F)
	if math.IsInf(scale, 0) || math.IsNaN(scale) || scale < 1 {
		scale = 1
	}
	weights := [...]float64{1e2, 1e4, 1e6, 1e8}
	// The weights ascend, so the last is the largest any run can use.
	finite := !math.IsInf(weights[len(weights)-1]*scale, 1)
	// exact records whether every point the current run evaluated had a
	// violation of exactly 0 or +Inf.
	var exact bool
	watched := func(x Vector) (float64, float64) {
		f, v := eval(x)
		if v != 0 && !math.IsInf(v, 1) {
			exact = false
		}
		return f, v
	}
	best := incumbent
	for _, w := range weights {
		exact = true
		r := NelderMead(penalized(watched, w*scale), best.X, bounds)
		f, viol := eval(r.X)
		moved := isWorse(best.F, best.Violation, f, viol)
		if moved {
			best = Result{X: r.X.Clone(), F: f, Violation: viol}
		}
		if !moved && exact && finite {
			break
		}
	}
	return best
}

// penalized is the exact-penalty function f + weight·viol that the
// Nelder-Mead phases minimize; points with infinite violation are +Inf.
func penalized(eval PointFunc, weight float64) Func {
	return func(x Vector) float64 {
		f, v := eval(x)
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		return f + weight*v
	}
}
