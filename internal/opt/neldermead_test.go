package opt

import (
	"math"
	"testing"
)

func boxAround(center Vector, half float64) Bounds {
	lo := make(Vector, len(center))
	hi := make(Vector, len(center))
	for i := range center {
		lo[i] = center[i] - half
		hi[i] = center[i] + half
	}
	return Bounds{Lo: lo, Hi: hi}
}

func TestNelderMeadSphere(t *testing.T) {
	f := func(x Vector) float64 {
		s := 0.0
		for _, v := range x {
			s += (v - 1) * (v - 1)
		}
		return s
	}
	b := boxAround(Vector{0, 0, 0}, 5)
	r := NelderMead(f, Vector{-3, 4, 2}, b)
	for i, v := range r.X {
		if math.Abs(v-1) > 1e-5 {
			t.Errorf("x[%d] = %v, want 1", i, v)
		}
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x Vector) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	b := Bounds{Lo: Vector{-5, -5}, Hi: Vector{5, 5}}
	r := NelderMead(f, Vector{-1.2, 1}, b)
	if math.Abs(r.X[0]-1) > 1e-3 || math.Abs(r.X[1]-1) > 1e-3 {
		t.Errorf("x = %v, want (1,1)", r.X)
	}
}

func TestNelderMeadRespectsBounds(t *testing.T) {
	// Unconstrained minimum at (−4, −4) sits outside the box; solution
	// must land on the box corner.
	f := func(x Vector) float64 { return (x[0]+4)*(x[0]+4) + (x[1]+4)*(x[1]+4) }
	b := Bounds{Lo: Vector{-1, -1}, Hi: Vector{3, 3}}
	r := NelderMead(f, Vector{2, 2}, b)
	if !b.Contains(r.X) {
		t.Fatalf("result %v escaped bounds", r.X)
	}
	if math.Abs(r.X[0]+1) > 1e-5 || math.Abs(r.X[1]+1) > 1e-5 {
		t.Errorf("x = %v, want (-1,-1)", r.X)
	}
}

func TestNelderMeadHandlesInfPlateaus(t *testing.T) {
	// Infeasible half-plane returns +Inf, as penalized NBS objectives do.
	f := func(x Vector) float64 {
		if x[0] < 0.5 {
			return math.Inf(1)
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	b := Bounds{Lo: Vector{0}, Hi: Vector{5}}
	r := NelderMead(f, Vector{4.5}, b)
	if math.Abs(r.X[0]-2) > 1e-4 {
		t.Errorf("x = %v, want 2", r.X)
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	f := func(x Vector) float64 {
		if x[0] > 3 {
			return math.NaN()
		}
		return (x[0] - 1) * (x[0] - 1)
	}
	b := Bounds{Lo: Vector{0}, Hi: Vector{10}}
	r := NelderMead(f, Vector{9}, b)
	if math.Abs(r.X[0]-1) > 1e-3 {
		t.Errorf("x = %v, want 1", r.X)
	}
}

func TestNelderMead1D(t *testing.T) {
	f := func(x Vector) float64 { return 0.09/x[0] + 2.24e-3*x[0] }
	b := Bounds{Lo: Vector{0.001}, Hi: Vector{10}}
	r := NelderMead(f, Vector{5}, b)
	want := math.Sqrt(0.09 / 2.24e-3)
	if math.Abs(r.X[0]-want)/want > 1e-3 {
		t.Errorf("x = %v, want %v", r.X[0], want)
	}
}
