package opt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSolveUnconstrainedQuadratic(t *testing.T) {
	p := Problem{
		Eval:   Constrained(func(x Vector) float64 { return (x[0]-0.3)*(x[0]-0.3) + (x[1]+0.7)*(x[1]+0.7) }),
		Bounds: Bounds{Lo: Vector{-2, -2}, Hi: Vector{2, 2}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(r.X[0]-0.3) > 1e-6 || math.Abs(r.X[1]+0.7) > 1e-6 {
		t.Errorf("x = %v, want (0.3, -0.7)", r.X)
	}
}

func TestSolveActiveConstraint(t *testing.T) {
	// Minimize x² subject to x >= 1 (i.e. 1 - x <= 0): optimum at x = 1.
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] * x[0] },
			Constraint{F: func(x Vector) float64 { return 1 - x[0] }}),
		Bounds: Bounds{Lo: Vector{-5}, Hi: Vector{5}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(r.X[0]-1) > 1e-5 {
		t.Errorf("x = %v, want 1", r.X[0])
	}
	if r.Violation > 1e-9 {
		t.Errorf("result infeasible: violation %v", r.Violation)
	}
}

func TestSolveConstrained2D(t *testing.T) {
	// Maximize x+y inside the unit circle (minimize the negation):
	// optimum at the tangency point x=y=1/sqrt(2).
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return -(x[0] + x[1]) },
			Constraint{F: func(x Vector) float64 { return x[0]*x[0] + x[1]*x[1] - 1 }}),
		Bounds: Bounds{Lo: Vector{0, 0}, Hi: Vector{2, 2}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := 1 / math.Sqrt2
	if math.Abs(r.F+math.Sqrt2) > 1e-4 {
		t.Errorf("f = %v, want %v", r.F, -math.Sqrt2)
	}
	// The tangent direction is nearly flat, so positions get a looser tolerance.
	if math.Abs(r.X[0]-want) > 1e-2 || math.Abs(r.X[1]-want) > 1e-2 {
		t.Errorf("x = %v, want (%v, %v)", r.X, want, want)
	}
}

func TestSolveMinOutsideCircleHitsCorner(t *testing.T) {
	// Minimize x+y outside the unit circle: the feasible minimum is 1,
	// attained at (1,0) or (0,1) where the line x+y=1 meets the circle.
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] + x[1] },
			Constraint{F: func(x Vector) float64 { return 1 - (x[0]*x[0] + x[1]*x[1]) }}),
		Bounds: Bounds{Lo: Vector{0, 0}, Hi: Vector{2, 2}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(r.F-1) > 1e-3 {
		t.Errorf("f = %v at %v, want 1", r.F, r.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] },
			Constraint{F: func(x Vector) float64 { return 1 + x[0] }}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	_, err := Solve(p)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("Solve error = %v, want ErrInfeasible", err)
	}
}

func TestWithFeasibilityTolerance(t *testing.T) {
	// Solve's fixed feasibility tolerance is 1e-9: a constraint
	// violated by 1e-6 everywhere is infeasible, one violated by 1e-10
	// everywhere is met and leaves the objective's minimum in place.
	problem := func(viol float64) Problem {
		return Problem{
			Eval: Constrained(func(x Vector) float64 { return x[0] },
				Constraint{F: func(x Vector) float64 { return viol }}),
			Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
		}
	}
	if _, err := Solve(problem(1e-6)); !errors.Is(err, ErrInfeasible) {
		t.Errorf("violation 1e-6: Solve error = %v, want ErrInfeasible", err)
	}
	r, err := Solve(problem(1e-10))
	if err != nil {
		t.Fatalf("violation 1e-10: %v", err)
	}
	if math.Abs(r.X[0]) > 1e-6 {
		t.Errorf("x = %v, want 0", r.X[0])
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Problem{}); err == nil {
		t.Error("Solve of empty problem should fail")
	}
	p := Problem{
		Eval:   Constrained(func(x Vector) float64 { return x[0] }),
		Bounds: Bounds{Lo: Vector{1}, Hi: Vector{0}},
	}
	if _, err := Solve(p); err == nil {
		t.Error("Solve with inverted bounds should fail")
	}
	p = Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] },
			Constraint{}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	if _, err := Solve(p); err == nil {
		t.Error("Solve with nil constraint function should fail")
	}
}

func TestSolveAtMostHelper(t *testing.T) {
	delay := func(x Vector) float64 { return 3 * x[0] }
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return 1 / x[0] },
			AtMost(delay, 6)),
		Bounds: Bounds{Lo: Vector{0.01}, Hi: Vector{10}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// 1/x decreasing, delay cap binds at x = 2.
	if math.Abs(r.X[0]-2) > 1e-4 {
		t.Errorf("x = %v, want 2", r.X[0])
	}
}

func TestSolve3D(t *testing.T) {
	// Three-dimensional convex bowl with one active constraint: the
	// solvers are sized for 1-2D but must stay correct in 3D.
	p := Problem{
		Eval: Constrained(func(x Vector) float64 {
			return (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.5)*(x[2]-0.5)
		},
			AtMost(func(x Vector) float64 { return x[0] + x[1] + x[2] }, 1)),
		Bounds: Bounds{Lo: Vector{0, 0, 0}, Hi: Vector{1, 1, 1}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Symmetric optimum at (1/3, 1/3, 1/3).
	for i, v := range r.X {
		if math.Abs(v-1.0/3) > 5e-3 {
			t.Errorf("x[%d] = %v, want 1/3", i, v)
		}
	}
}

// TestSolveMatchesMultiStart cross-checks the two independent strategies
// on randomized convex quadratics with a linear constraint.
func TestSolveMatchesMultiStart(t *testing.T) {
	f := func(cxRaw, cyRaw, capRaw uint8) bool {
		cx := float64(cxRaw%100)/50 - 1 // [-1, 1)
		cy := float64(cyRaw%100)/50 - 1
		cap := 0.5 + float64(capRaw%100)/100 // [0.5, 1.5)
		p := Problem{
			Eval: Constrained(func(x Vector) float64 {
				return (x[0]-cx)*(x[0]-cx) + (x[1]-cy)*(x[1]-cy)
			},
				AtMost(func(x Vector) float64 { return x[0] + x[1] }, cap)),
			Bounds: Bounds{Lo: Vector{-2, -2}, Hi: Vector{2, 2}},
		}
		a, errA := Solve(p)
		b, errB := MultiStart(p, 8, 1)
		if errA != nil || errB != nil {
			return false
		}
		return math.Abs(a.F-b.F) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMultiStartInfeasible(t *testing.T) {
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] },
			Constraint{F: func(x Vector) float64 { return 1 }}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	if _, err := MultiStart(p, 4, 1); !errors.Is(err, ErrInfeasible) {
		t.Errorf("MultiStart error = %v, want ErrInfeasible", err)
	}
}

func TestIsWorseOrdering(t *testing.T) {
	tests := []struct {
		name                 string
		aF, aViol, bF, bViol float64
		bStrictlyBetter      bool
	}{
		{name: "both feasible, b lower", aF: 2, bF: 1, bStrictlyBetter: true},
		{name: "both feasible, b higher", aF: 1, bF: 2},
		{name: "only b feasible", aF: 0, aViol: 1, bF: 100, bStrictlyBetter: true},
		{name: "only a feasible", aF: 100, bF: 0, bViol: 1},
		{name: "both infeasible, b closer", aF: 0, aViol: 2, bF: 0, bViol: 1, bStrictlyBetter: true},
		{name: "NaN objective loses", aF: math.NaN(), bF: 5, bStrictlyBetter: true},
	}
	for _, tt := range tests {
		if got := isWorse(tt.aF, tt.aViol, tt.bF, tt.bViol); got != tt.bStrictlyBetter {
			t.Errorf("%s: isWorse = %v, want %v", tt.name, got, tt.bStrictlyBetter)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := Bounds{Lo: Vector{0, -1}, Hi: Vector{2, 1}}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !b.Contains(Vector{1, 0}) {
		t.Error("Contains(interior) = false")
	}
	if b.Contains(Vector{3, 0}) {
		t.Error("Contains(exterior) = true")
	}
	if b.Contains(Vector{1}) {
		t.Error("Contains with wrong dimension = true")
	}
	c := b.Center()
	if c[0] != 1 || c[1] != 0 {
		t.Errorf("Center = %v, want [1 0]", c)
	}
	w := b.Width()
	if w[0] != 2 || w[1] != 2 {
		t.Errorf("Width = %v, want [2 2]", w)
	}
}

func TestVectorClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

// TestViolationNaN: a NaN constraint value counts as infinite violation,
// through Violation and through the point function Constrained builds,
// wherever it sits in the constraint list.
func TestViolationNaN(t *testing.T) {
	nan := Constraint{F: func(x Vector) float64 { return math.NaN() }}
	over := Constraint{F: func(x Vector) float64 { return 0.5 }}
	for _, cons := range [][]Constraint{{nan}, {over, nan}, {nan, over}} {
		if v := Violation(Vector{0.5}, cons); !math.IsInf(v, 1) {
			t.Errorf("Violation with NaN constraint = %v, want +Inf", v)
		}
		f, v := Constrained(func(x Vector) float64 { return 7 }, cons...)(Vector{0.5})
		if f != 7 || !math.IsInf(v, 1) {
			t.Errorf("point function with NaN constraint = (%v, %v), want (7, +Inf)", f, v)
		}
	}
	if v := Violation(Vector{0.5}, []Constraint{over, over}); v != 1 {
		t.Errorf("Violation of two 0.5 overshoots = %v, want 1", v)
	}
}

// TestSolveRanksFeasibilityFirst: the objective keeps falling into the
// infeasible region, where the constraint is first violated and then
// NaN, yet Solve returns the best feasible point.
func TestSolveRanksFeasibilityFirst(t *testing.T) {
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return -x[0] },
			Constraint{F: func(x Vector) float64 {
				if x[0] > 0.9 {
					return math.NaN()
				}
				return x[0] - 0.5
			}}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(r.X[0]-0.5) > 1e-6 || r.Violation > 1e-9 {
		t.Errorf("x = %v with violation %v, want the feasible boundary 0.5", r.X[0], r.Violation)
	}
}

// referencePolish is polishPhase without its early stop: it runs
// Nelder-Mead at every penalty weight, as the polish once always did.
func referencePolish(bounds Bounds, eval PointFunc, incumbent Result) Result {
	scale := math.Abs(incumbent.F)
	if math.IsInf(scale, 0) || math.IsNaN(scale) || scale < 1 {
		scale = 1
	}
	best := incumbent
	for _, w := range []float64{1e2, 1e4, 1e6, 1e8} {
		r := NelderMead(penalized(eval, w*scale), best.X, bounds)
		f, viol := eval(r.X)
		if isWorse(best.F, best.Violation, f, viol) {
			best = Result{X: r.X.Clone(), F: f, Violation: viol}
		}
	}
	return best
}

// TestPolishStopIsExact: polishPhase's early stop changes how many
// points the polish evaluates, never what it returns. On each problem
// an incumbent, the grid's unless the case names one, is polished
// twice, by polishPhase and by the reference that runs every weight,
// and the results must agree bit for bit. Where every run sees
// violations of only 0 or +Inf the stop must fire; where a run sees a
// finite violation, or a weight overflows, it must not.
func TestPolishStopIsExact(t *testing.T) {
	cases := []struct {
		name  string
		p     Problem
		start Vector // the incumbent's point; nil for the grid's
		stops bool
	}{
		{
			// A curved valley: the first two runs each move the
			// incumbent, and the third repeats the second.
			name: "interior optimum",
			p: Problem{
				Eval: Constrained(func(x Vector) float64 {
					a, b := 0.3-x[0], x[1]-x[0]*x[0]
					return a*a + 1000*b*b
				}),
				Bounds: Bounds{Lo: Vector{-2, -2}, Hi: Vector{2, 2}},
			},
			stops: true,
		},
		{
			// The unrefined 65-point lattice's best point, 21/64, is
			// short of the boundary, and the first weight is too weak
			// to hold the constraint: that run moves nothing, and the
			// next one moves the incumbent onto the boundary.
			name: "optimum on a constraint",
			p: Problem{
				Eval: Constrained(func(x Vector) float64 { return -1e5 * (x[0] - 1.0/3) },
					Constraint{F: func(x Vector) float64 { return x[0] - 1.0/3 }}),
				Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
			},
			start: Vector{21.0 / 64},
		},
		{
			name: "+Inf plateau",
			p: Problem{
				Eval: func(x Vector) (float64, float64) {
					if x[0]+x[1] > 1.2 {
						return 0, math.Inf(1)
					}
					a, b := x[0]-0.41, x[1]-0.77
					return a*a + 3*b*b, 0
				},
				Bounds: Bounds{Lo: Vector{0, 0}, Hi: Vector{1, 1}},
			},
			stops: true,
		},
		{
			// The optimum sits on the edge of a region where the
			// constraint is NaN, which counts as +Inf violation.
			name: "NaN constraint",
			p: Problem{
				Eval: Constrained(func(x Vector) float64 {
					a, b := x[0]-0.7, x[1]-0.2
					return a*a + b*b
				}, Constraint{F: func(x Vector) float64 {
					if x[0]*x[1] > 0.1 {
						return math.NaN()
					}
					return -1
				}}),
				Bounds: Bounds{Lo: Vector{0, 0}, Hi: Vector{1, 1}},
			},
			stops: true,
		},
		{
			// 1e6·scale overflows: f + (+Inf)·0 is NaN, so the last two
			// runs see values the first two did not.
			name: "weight overflows",
			p: Problem{
				Eval: Constrained(func(x Vector) float64 {
					a := x[0] - 0.3
					return 1e303 * (1 + a*a)
				}),
				Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
			},
		},
	}
	for _, tc := range cases {
		incumbent := gridPhase(tc.p.Bounds, tc.p.Eval)
		if tc.start != nil {
			f, viol := tc.p.Eval(tc.start)
			incumbent = Result{X: tc.start, F: f, Violation: viol}
		}
		n := 0
		counted := func(x Vector) (float64, float64) { n++; return tc.p.Eval(x) }
		want := referencePolish(tc.p.Bounds, counted, incumbent)
		nWant := n
		n = 0
		got := polishPhase(tc.p.Bounds, counted, incumbent)
		if !sameBits(got, want) {
			t.Errorf("%s: polishPhase = %v (F %v, violation %v), reference = %v (F %v, violation %v)",
				tc.name, got.X, got.F, got.Violation, want.X, want.F, want.Violation)
		}
		switch {
		case tc.stops && n >= nWant:
			t.Errorf("%s: polishPhase evaluated %d points, reference %d: the stop did not fire", tc.name, n, nWant)
		case !tc.stops && n != nWant:
			t.Errorf("%s: polishPhase evaluated %d points, reference %d: the stop fired", tc.name, n, nWant)
		}
	}
}

// sameBits reports whether two results carry the same X, F and
// Violation bits.
func sameBits(a, b Result) bool {
	if len(a.X) != len(b.X) ||
		math.Float64bits(a.F) != math.Float64bits(b.F) ||
		math.Float64bits(a.Violation) != math.Float64bits(b.Violation) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}
