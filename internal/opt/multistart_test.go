package opt

import (
	"errors"
	"math"
	"testing"
)

// multiStartProblems is the fixture set for comparing the sequential and
// parallel multi-start strategies.
func multiStartProblems() map[string]Problem {
	return map[string]Problem{
		"quadratic": {
			Eval:   Constrained(func(x Vector) float64 { return (x[0]-0.3)*(x[0]-0.3) + (x[1]+0.7)*(x[1]+0.7) }),
			Bounds: Bounds{Lo: Vector{-2, -2}, Hi: Vector{2, 2}},
		},
		"constrained": {
			Eval: Constrained(func(x Vector) float64 { return x[0] * x[0] },
				Constraint{Name: "x>=1", F: func(x Vector) float64 { return 1 - x[0] }}),
			Bounds: Bounds{Lo: Vector{-5}, Hi: Vector{5}},
		},
		"multimodal": {
			// Rastrigin-flavoured: many local minima, global at the origin.
			Eval: Constrained(func(x Vector) float64 {
				return 20 + x[0]*x[0] - 10*math.Cos(2*math.Pi*x[0]) +
					x[1]*x[1] - 10*math.Cos(2*math.Pi*x[1])
			}),
			Bounds: Bounds{Lo: Vector{-5.12, -5.12}, Hi: Vector{5.12, 5.12}},
		},
	}
}

// MultiStartParallel must return exactly what MultiStart returns — same
// point, same objective, same violation, same evaluation count — for
// any worker count.
func TestMultiStartParallelMatchesSequential(t *testing.T) {
	for name, p := range multiStartProblems() {
		t.Run(name, func(t *testing.T) {
			for _, starts := range []int{1, 4, 9} {
				seq, errSeq := MultiStart(p, starts, 42)
				for _, workers := range []int{1, 3, 8} {
					par, errPar := MultiStartParallel(p, starts, 42, workers)
					if (errSeq == nil) != (errPar == nil) {
						t.Fatalf("starts=%d workers=%d: err %v vs %v", starts, workers, errSeq, errPar)
					}
					if seq.F != par.F || seq.Violation != par.Violation {
						t.Errorf("starts=%d workers=%d: (F, viol) = (%v, %v), want (%v, %v)",
							starts, workers, par.F, par.Violation, seq.F, seq.Violation)
					}
					for i := range seq.X {
						if seq.X[i] != par.X[i] {
							t.Errorf("starts=%d workers=%d: X = %v, want %v", starts, workers, par.X, seq.X)
							break
						}
					}
					if seq.Evals != par.Evals {
						t.Errorf("starts=%d workers=%d: Evals = %d, want %d",
							starts, workers, par.Evals, seq.Evals)
					}
				}
			}
		})
	}
}

func TestMultiStartParallelInfeasible(t *testing.T) {
	p := Problem{
		Eval: Constrained(func(x Vector) float64 { return x[0] },
			Constraint{Name: "impossible", F: func(x Vector) float64 { return 1 }}),
		Bounds: Bounds{Lo: Vector{0}, Hi: Vector{1}},
	}
	if _, err := MultiStartParallel(p, 4, 1, 2); !errors.Is(err, ErrInfeasible) {
		t.Errorf("MultiStartParallel error = %v, want ErrInfeasible", err)
	}
}
