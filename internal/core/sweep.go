package core

import (
	"context"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/par"
)

// SweepPoint is one cell of a requirement sweep. Err is non-nil (wrapping
// nbs.ErrInfeasible) for requirement combinations the protocol cannot
// satisfy; such cells are part of the result because the figures must
// report them.
type SweepPoint struct {
	Requirements Requirements
	Tradeoff     Tradeoff
	Err          error
}

// Sweep plays the game in relaxed mode at every requirement pair of
// reqs, fanning the independent cells over a worker pool. Holding the
// energy budget and varying Lmax reproduces the paper's Figure 1 series
// for one protocol; holding Lmax and varying the budget, its Figure 2.
// Cells whose joint requirements are unattainable carry the best-effort
// point with Tradeoff.BudgetExceeded set, matching the over-budget
// points visible in the paper's LMAC subplots.
//
// Element i of the result is always the solve for reqs[i], whatever
// the worker count: macmodel.Model implementations are immutable and
// the solvers deterministic, so concurrency changes only the wall
// clock. workers < 1 uses one worker per CPU. Cancelling ctx abandons
// cells not yet started and returns ctx.Err(); already-solved cells
// are lost.
func Sweep(ctx context.Context, m macmodel.Model, reqs []Requirements, workers int) ([]SweepPoint, error) {
	points := make([]SweepPoint, len(reqs))
	err := par.ForEach(ctx, len(reqs), workers, func(i int) {
		tr, err := OptimizeRelaxed(m, reqs[i])
		points[i] = SweepPoint{Requirements: reqs[i], Tradeoff: tr, Err: err}
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// PaperDelays returns the Lmax sweep of the paper's Figure 1: 1..6 s.
func PaperDelays() []float64 { return []float64{1, 2, 3, 4, 5, 6} }

// PaperBudgets returns the Ebudget sweep of the paper's Figure 2:
// 0.01..0.06 J.
func PaperBudgets() []float64 { return []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06} }

// PaperEnergyBudget is the fixed budget of Figure 1 (0.06 J).
const PaperEnergyBudget = 0.06

// PaperMaxDelay is the fixed delay bound of Figure 2 (6 s).
const PaperMaxDelay = 6.0
