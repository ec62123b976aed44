package nbs

import (
	"errors"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

// linearGame is the canonical synthetic game A = x, B = 1−x on [0,1]:
// a straight-line Pareto frontier with every bargaining quantity known
// in closed form.
func linearGame(budgetA, budgetB float64) Game {
	return Game{
		CostA:   func(x opt.Vector) float64 { return x[0] },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: budgetA,
		BudgetB: budgetB,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
}

func TestSolveLinearGame(t *testing.T) {
	out, err := Solve(linearGame(1, 1))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(out.BestA.A) > 1e-6 || math.Abs(out.BestA.B-1) > 1e-6 {
		t.Errorf("BestA = (%v, %v), want (0, 1)", out.BestA.A, out.BestA.B)
	}
	if math.Abs(out.BestB.B) > 1e-6 || math.Abs(out.BestB.A-1) > 1e-6 {
		t.Errorf("BestB = (%v, %v), want (1, 0)", out.BestB.A, out.BestB.B)
	}
	if math.Abs(out.DisagreementA-1) > 1e-6 || math.Abs(out.DisagreementB-1) > 1e-6 {
		t.Errorf("disagreement = (%v, %v), want (1, 1)", out.DisagreementA, out.DisagreementB)
	}
	// Nash solution: maximize (1−x)·x → x = 1/2.
	if math.Abs(out.Bargain.X[0]-0.5) > 1e-4 {
		t.Errorf("bargain x = %v, want 0.5", out.Bargain.X[0])
	}
	if out.Degenerate {
		t.Error("linear game flagged degenerate")
	}
	fA, fB := out.Fairness()
	if math.Abs(fA-0.5) > 1e-3 || math.Abs(fB-0.5) > 1e-3 {
		t.Errorf("fairness = (%v, %v), want (0.5, 0.5)", fA, fB)
	}
}

func TestSolveAsymmetricLinear(t *testing.T) {
	g := Game{
		CostA:   func(x opt.Vector) float64 { return 2 * x[0] },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: 2,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// max (2−2x)(x) → x = 1/2; costs (1, 0.5).
	if math.Abs(out.Bargain.X[0]-0.5) > 1e-4 {
		t.Errorf("bargain x = %v, want 0.5", out.Bargain.X[0])
	}
	fA, fB := out.Fairness()
	if math.Abs(fA-fB) > 1e-3 {
		t.Errorf("proportional fairness broken on a linear frontier: fA=%v fB=%v", fA, fB)
	}
}

func TestSolveBudgetClipsBargain(t *testing.T) {
	out, err := Solve(linearGame(0.4, 1))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// P2 is budget-limited to x=0.4, so v=(0.4, 1) and the Nash product
	// (0.4−x)·x peaks at x=0.2.
	if math.Abs(out.DisagreementA-0.4) > 1e-4 {
		t.Errorf("disagreementA = %v, want 0.4", out.DisagreementA)
	}
	if math.Abs(out.Bargain.X[0]-0.2) > 1e-4 {
		t.Errorf("bargain x = %v, want 0.2", out.Bargain.X[0])
	}
	fA, fB := out.Fairness()
	if math.Abs(fA-0.5) > 1e-3 || math.Abs(fB-0.5) > 1e-3 {
		t.Errorf("fairness = (%v, %v), want (0.5, 0.5)", fA, fB)
	}
}

func TestSolveQuadraticSymmetric(t *testing.T) {
	g := Game{
		CostA:   func(x opt.Vector) float64 { return x[0] * x[0] },
		CostB:   func(x opt.Vector) float64 { return (1 - x[0]) * (1 - x[0]) },
		BudgetA: 1,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Symmetry axiom: the symmetric game must split evenly.
	if math.Abs(out.Bargain.X[0]-0.5) > 1e-4 {
		t.Errorf("bargain x = %v, want 0.5 (symmetry axiom)", out.Bargain.X[0])
	}
	if math.Abs(out.Bargain.A-out.Bargain.B) > 1e-4 {
		t.Errorf("symmetric game with asymmetric costs (%v, %v)", out.Bargain.A, out.Bargain.B)
	}
}

// TestBargainScaleInvariance: scaling one player's cost must not move
// the bargaining decision (Nash axiom 3).
func TestBargainScaleInvariance(t *testing.T) {
	base := Game{
		CostA:   func(x opt.Vector) float64 { return x[0] * x[0] },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: 1,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	scaled := base
	scaled.CostA = func(x opt.Vector) float64 { return 10 * x[0] * x[0] }
	scaled.BudgetA = 10

	p1, _, err := Bargain(base, 1, 1)
	if err != nil {
		t.Fatalf("Bargain(base): %v", err)
	}
	p2, _, err := Bargain(scaled, 10, 1)
	if err != nil {
		t.Fatalf("Bargain(scaled): %v", err)
	}
	if math.Abs(p1.X[0]-p2.X[0]) > 1e-3 {
		t.Errorf("scale invariance violated: x=%v vs %v", p1.X[0], p2.X[0])
	}
	// The known solution of max (1−x²)·x is x = 1/sqrt(3).
	if want := 1 / math.Sqrt(3); math.Abs(p1.X[0]-want) > 1e-3 {
		t.Errorf("bargain x = %v, want %v", p1.X[0], want)
	}
}

// TestBargainIIA: shrinking the feasible set around the solution while
// keeping the disagreement point must not move the solution (axiom 4).
func TestBargainIIA(t *testing.T) {
	g := linearGame(1, 1)
	full, _, err := Bargain(g, 1, 1)
	if err != nil {
		t.Fatalf("Bargain(full): %v", err)
	}
	restricted := g
	restricted.Bounds = opt.Bounds{Lo: opt.Vector{0.3}, Hi: opt.Vector{0.9}}
	sub, _, err := Bargain(restricted, 1, 1)
	if err != nil {
		t.Fatalf("Bargain(restricted): %v", err)
	}
	if math.Abs(full.X[0]-sub.X[0]) > 1e-3 {
		t.Errorf("IIA violated: x=%v on the full set, %v on the subset", full.X[0], sub.X[0])
	}
}

// TestBargainParetoOptimal: no feasible point may strictly improve both
// players over the bargain (axiom 1), checked on a dense sample.
func TestBargainParetoOptimal(t *testing.T) {
	g := Game{
		CostA:   func(x opt.Vector) float64 { return x[0] * x[0] },
		CostB:   func(x opt.Vector) float64 { return (1 - x[0]) * (1 - x[0]) },
		BudgetA: 1,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	const eps = 1e-6
	for i := 0; i <= 1000; i++ {
		x := opt.Vector{float64(i) / 1000}
		if g.CostA(x) < out.Bargain.A-eps && g.CostB(x) < out.Bargain.B-eps {
			t.Fatalf("point %v strictly dominates the bargain (%v, %v)", x, out.Bargain.A, out.Bargain.B)
		}
	}
}

func TestSolveDegenerateConstantPlayer(t *testing.T) {
	g := Game{
		CostA:   func(x opt.Vector) float64 { return 0.5 },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: 1,
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !out.Degenerate {
		t.Error("constant player A should force the degenerate fallback")
	}
	if out.Bargain.A > 0.5+1e-6 || out.Bargain.B > 1+1e-6 {
		t.Errorf("fallback bargain (%v, %v) violates caps", out.Bargain.A, out.Bargain.B)
	}
}

func TestBargainInfeasibleCaps(t *testing.T) {
	// Caps A <= 0.1 and B <= 0.1 cannot hold simultaneously on A=x,
	// B=1−x.
	g := linearGame(0.1, 0.1)
	_, _, err := Bargain(g, 0.1, 0.1)
	if !errors.Is(err, opt.ErrInfeasible) {
		t.Errorf("Bargain error = %v, want ErrInfeasible", err)
	}
}

func TestSolveRelaxedBestEffort(t *testing.T) {
	// Budgets x <= 0.1 and 1−x <= 0.4 cannot hold at once. Strict mode
	// must refuse; relaxed mode must return the (P1) best-effort point
	// x = 0.6 (honours BudgetB, busts BudgetA) and flag it.
	g := linearGame(0.1, 0.4)
	if _, err := Solve(g); !errors.Is(err, opt.ErrInfeasible) {
		t.Fatalf("strict Solve error = %v, want ErrInfeasible", err)
	}
	g.Relax = true
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("relaxed Solve: %v", err)
	}
	if !out.BudgetExceeded {
		t.Error("BudgetExceeded not set")
	}
	if math.Abs(out.Bargain.X[0]-0.6) > 1e-4 {
		t.Errorf("best-effort x = %v, want 0.6", out.Bargain.X[0])
	}
	if out.Bargain.B > 0.4+1e-6 {
		t.Errorf("best-effort point must honour BudgetB: B = %v", out.Bargain.B)
	}
}

func TestSolveRelaxedBudgetBelowReachable(t *testing.T) {
	// BudgetA below the lowest reachable A makes (P2) itself infeasible;
	// relaxed mode threatens with the unconstrained optimum and still
	// returns a flagged best-effort point.
	g := Game{
		CostA:   func(x opt.Vector) float64 { return 0.5 + x[0] },
		CostB:   func(x opt.Vector) float64 { return 1 - x[0] },
		BudgetA: 0.2, // unreachable: A >= 0.5 everywhere
		BudgetB: 1,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
	if _, err := Solve(g); !errors.Is(err, opt.ErrInfeasible) {
		t.Fatalf("strict Solve error = %v, want ErrInfeasible", err)
	}
	g.Relax = true
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("relaxed Solve: %v", err)
	}
	if !out.BudgetExceeded {
		t.Error("BudgetExceeded not set")
	}
	if math.Abs(out.Bargain.X[0]) > 1e-4 {
		t.Errorf("best-effort x = %v, want 0 (cheapest A under the B budget)", out.Bargain.X[0])
	}
}

func TestSolveRelaxedNoOpWhenFeasible(t *testing.T) {
	g := linearGame(1, 1)
	g.Relax = true
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if out.BudgetExceeded {
		t.Error("feasible game flagged budget-exceeded")
	}
	if math.Abs(out.Bargain.X[0]-0.5) > 1e-4 {
		t.Errorf("bargain x = %v, want 0.5", out.Bargain.X[0])
	}
}

func TestGameValidate(t *testing.T) {
	good := linearGame(1, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	bad := good
	bad.CostA = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil CostA accepted")
	}
	bad = good
	bad.BudgetB = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = good
	bad.Bounds = opt.Bounds{}
	if err := bad.Validate(); err == nil {
		t.Error("empty bounds accepted")
	}
}
