package nbs

import (
	"context"
	"errors"
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
)

// FrontierContext traces the game's Pareto frontier — the E-L curves
// plotted in the paper's figures — with the epsilon-constraint method:
// player B's cost is capped at n evenly spaced levels between its best
// achievable value and hi, and player A's cost is minimized at each
// level.
//
// hi is typically BudgetB (the full admissible delay range); caps whose
// subproblem is infeasible are skipped. The returned points are ordered
// by increasing B. The context is polled before each of the n cap
// solves, so a done ctx abandons the trace at point granularity and
// returns the context's error. An uncancellable ctx is free.
func FrontierContext(ctx context.Context, g Game, hi float64, n int) ([]Point, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("nbs: frontier needs at least 2 points, got %d", n)
	}
	if hi <= 0 {
		return nil, fmt.Errorf("nbs: frontier cap %v must be positive", hi)
	}

	// Player B's ideal under the A budget gives the left end of the sweep.
	r2, err := g.minB(g.BudgetA).solve()
	if err != nil {
		return nil, fmt.Errorf("nbs: frontier anchor (P2): %w", err)
	}
	lo := g.CostB(r2.X)
	if lo >= hi {
		return nil, fmt.Errorf("nbs: frontier range empty: best B %v >= cap %v", lo, hi)
	}

	points := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cap := lo + (hi-lo)*float64(i)/float64(n-1)
		r, err := g.minA(cap).solve()
		if err != nil {
			if errors.Is(err, opt.ErrInfeasible) {
				continue
			}
			return nil, fmt.Errorf("nbs: frontier cap %v: %w", cap, err)
		}
		points = append(points, g.pointAt(r.X))
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("nbs: frontier: %w", ErrInfeasible)
	}
	return points, nil
}
