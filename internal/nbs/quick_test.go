package nbs

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"github.com/edmac-project/edmac/internal/opt"
)

// randomTradeGame builds a game A = a·x^p, B = b·(1−x)^q on [0,1] from
// fuzz bytes: a family of smooth, strictly conflicting cost pairs with a
// convex-enough frontier for the bargaining machinery.
func randomTradeGame(aRaw, bRaw, pRaw, qRaw uint8) Game {
	a := 0.5 + float64(aRaw%100)/50 // [0.5, 2.5)
	b := 0.5 + float64(bRaw%100)/50 // [0.5, 2.5)
	p := 1 + float64(pRaw%3)        // {1, 2, 3}
	q := 1 + float64(qRaw%3)        // {1, 2, 3}
	return Game{
		CostA:   func(x opt.Vector) float64 { return a * math.Pow(x[0], p) },
		CostB:   func(x opt.Vector) float64 { return b * math.Pow(1-x[0], q) },
		BudgetA: a,
		BudgetB: b,
		Bounds:  opt.Bounds{Lo: opt.Vector{0}, Hi: opt.Vector{1}},
	}
}

// TestQuickBargainInRectangle: on every random game the bargain lies
// weakly inside the rectangle spanned by the optima and the
// disagreement point, and respects both budgets.
func TestQuickBargainInRectangle(t *testing.T) {
	const tol = 1e-6
	f := func(aRaw, bRaw, pRaw, qRaw uint8) bool {
		g := randomTradeGame(aRaw, bRaw, pRaw, qRaw)
		out, err := Solve(g)
		if err != nil {
			return false
		}
		if out.Bargain.A > g.BudgetA+tol || out.Bargain.B > g.BudgetB+tol {
			return false
		}
		if out.Bargain.A > out.DisagreementA+tol || out.Bargain.B > out.DisagreementB+tol {
			return false
		}
		if out.Bargain.A < out.BestA.A-tol || out.Bargain.B < out.BestB.B-tol {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickNashMaximizesProduct: no sampled feasible point beats the
// bargain's Nash product.
func TestQuickNashMaximizesProduct(t *testing.T) {
	f := func(aRaw, bRaw, pRaw, qRaw uint8) bool {
		g := randomTradeGame(aRaw, bRaw, pRaw, qRaw)
		out, err := Solve(g)
		if err != nil || out.Degenerate {
			return err == nil
		}
		best := (out.DisagreementA - out.Bargain.A) * (out.DisagreementB - out.Bargain.B)
		for i := 0; i <= 200; i++ {
			x := opt.Vector{float64(i) / 200}
			a, b := g.CostA(x), g.CostB(x)
			if a > math.Min(g.BudgetA, out.DisagreementA) || b > math.Min(g.BudgetB, out.DisagreementB) {
				continue
			}
			if (out.DisagreementA-a)*(out.DisagreementB-b) > best*(1+1e-3)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickFairnessCoordinatesInUnitRange: proportional-fairness
// coordinates stay in [0,1] on every non-degenerate random game.
func TestQuickFairnessCoordinatesInUnitRange(t *testing.T) {
	f := func(aRaw, bRaw, pRaw, qRaw uint8) bool {
		g := randomTradeGame(aRaw, bRaw, pRaw, qRaw)
		out, err := Solve(g)
		if err != nil || out.Degenerate {
			return err == nil
		}
		fA, fB := out.Fairness()
		const tol = 1e-6
		return fA >= -tol && fA <= 1+tol && fB >= -tol && fB <= 1+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickFrontierDominatesNothing: every frontier point is
// non-dominated within the returned set.
func TestQuickFrontierDominatesNothing(t *testing.T) {
	f := func(aRaw, bRaw, pRaw, qRaw uint8) bool {
		g := randomTradeGame(aRaw, bRaw, pRaw, qRaw)
		pts, err := FrontierContext(context.Background(), g, g.BudgetB, 9)
		if err != nil {
			return false
		}
		const tol = 1e-6
		for i := range pts {
			for j := range pts {
				if pts[j].A < pts[i].A-tol && pts[j].B < pts[i].B-tol {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestTwoDimensionalDecisionGame exercises the machinery on a game whose
// decision vector has two coordinates with distinct roles — mirroring
// DMAC/LMAC — and a known solution: only x[0] matters to the frontier,
// x[1] is pure overhead that both players want at its minimum.
func TestTwoDimensionalDecisionGame(t *testing.T) {
	g := Game{
		CostA: func(x opt.Vector) float64 { return x[0] + 0.3*x[1] },
		CostB: func(x opt.Vector) float64 { return (1 - x[0]) + 0.3*x[1] },
		// Budgets leave slack so the frontier is the x[1]=0 edge.
		BudgetA: 2,
		BudgetB: 2,
		Bounds:  opt.Bounds{Lo: opt.Vector{0, 0}, Hi: opt.Vector{1, 1}},
	}
	out, err := Solve(g)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if out.Bargain.X[1] > 1e-4 {
		t.Errorf("pure-overhead coordinate should pin to 0, got %v", out.Bargain.X[1])
	}
	if math.Abs(out.Bargain.X[0]-0.5) > 1e-3 {
		t.Errorf("bargain x[0] = %v, want 0.5", out.Bargain.X[0])
	}
}
