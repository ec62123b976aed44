package opt

import (
	"math"
	"testing"
)

func TestWithFeasibilityTolerance(t *testing.T) {
	// A constraint violated by 1e-6 everywhere: infeasible at the
	// default tolerance, feasible at a loose one.
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] },
			Constraint{Name: "just-off", F: func(x Vector) float64 { return 1e-6 }}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	if _, err := Solve(p); err == nil {
		t.Error("tight tolerance accepted a violated constraint")
	}
	r, err := Solve(p, WithFeasibilityTolerance(1e-3))
	if err != nil {
		t.Fatalf("loose tolerance: %v", err)
	}
	if math.Abs(r.X[0]) > 1e-6 {
		t.Errorf("x = %v, want 0", r.X[0])
	}
}

func TestWithGridPointsAndRefinements(t *testing.T) {
	// A narrow spike the coarse default grid could miss entirely is
	// caught with a denser grid; both must agree after polish.
	f := func(x Vector) float64 {
		d := x[0] - 0.377
		return -1/(1+2000*d*d) + 1
	}
	p := Problem{
		Eval:   Constrained(f),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	r, err := Solve(p, WithGridPoints(301), WithRefinements(6))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(r.X[0]-0.377) > 1e-4 {
		t.Errorf("x = %v, want 0.377", r.X[0])
	}
	// Invalid option values are ignored rather than breaking the solver.
	if _, err := Solve(p, WithGridPoints(1), WithRefinements(-5), WithFeasibilityTolerance(-1)); err != nil {
		t.Errorf("Solve with out-of-range options: %v", err)
	}
}

func TestSolve3D(t *testing.T) {
	// Three-dimensional convex bowl with one active constraint: the
	// solvers are sized for 1-2D but must stay correct in 3D.
	p := Problem{
		Eval: Constrained(func(x Vector) float64 {
			return (x[0]-0.5)*(x[0]-0.5) + (x[1]-0.5)*(x[1]-0.5) + (x[2]-0.5)*(x[2]-0.5)
		},
			AtMost("sum", func(x Vector) float64 { return x[0] + x[1] + x[2] }, 1)),
		Bounds: Bounds{Lo: Vector{0, 0, 0}, Hi: Vector{1, 1, 1}},
	}
	r, err := Solve(p, WithGridPoints(9))
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

func TestNMOptionsDefaults(t *testing.T) {
	o := NMOptions{}.withDefaults(2)
	if o.MaxIter != 800 || o.TolF <= 0 || o.TolX <= 0 || o.Step != 0.1 {
		t.Errorf("withDefaults(2) = %+v", o)
	}
	custom := NMOptions{MaxIter: 7, TolF: 1, TolX: 1, Step: 0.5}.withDefaults(2)
	if custom.MaxIter != 7 || custom.Step != 0.5 {
		t.Errorf("custom options overridden: %+v", custom)
	}
}

func TestResultFeasible(t *testing.T) {
	r := Result{Violation: 1e-10}
	if !r.Feasible(1e-9) {
		t.Error("tiny violation should count as feasible")
	}
	if r.Feasible(1e-11) {
		t.Error("violation above tolerance should not be feasible")
	}
}

func TestIsWorseOrdering(t *testing.T) {
	const tol = 1e-9
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
		if got := isWorse(tt.aF, tt.aViol, tt.bF, tt.bViol, tol); got != tt.bStrictlyBetter {
			t.Errorf("%s: isWorse = %v, want %v", tt.name, got, tt.bStrictlyBetter)
		}
	}
}

func TestGoldenSectionDefaultTolerance(t *testing.T) {
	x, _ := GoldenSection(func(x float64) float64 { return (x - 2) * (x - 2) }, 0, 5, 0)
	if math.Abs(x-2) > 1e-6 {
		t.Errorf("x = %v, want 2", x)
	}
}

func TestBrentMinDefaultTolerance(t *testing.T) {
	x, _ := BrentMin(func(x float64) float64 { return (x - 2) * (x - 2) }, 0, 5, 0)
	if math.Abs(x-2) > 1e-6 {
		t.Errorf("x = %v, want 2", x)
	}
	// Reversed bracket.
	x, _ = BrentMin(func(x float64) float64 { return math.Abs(x - 1) }, 5, 0, 1e-10)
	if math.Abs(x-1) > 1e-6 {
		t.Errorf("x = %v, want 1", x)
	}
}
