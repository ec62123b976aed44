// Package core orchestrates the paper's framework end to end: it maps an
// application's requirements (energy budget per node, maximum end-to-end
// delay) and a duty-cycled MAC protocol model onto the two-player
// cooperative game of internal/nbs, and returns the energy-optimal (P1),
// delay-optimal (P2) and Nash-bargaining (P3/P4) operating points with
// the concrete MAC parameters that realize them.
package core

import (
	"context"
	"fmt"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
	"github.com/edmac-project/edmac/internal/opt"
)

// Requirements are the application inputs of the framework.
type Requirements struct {
	// EnergyBudget is the paper's Ebudget: the maximum energy a node may
	// spend per accounting window, in joules.
	EnergyBudget float64
	// MaxDelay is the paper's Lmax: the maximum tolerated end-to-end
	// packet delay, in seconds.
	MaxDelay float64
}

// Validate reports whether the requirements are usable.
func (r Requirements) Validate() error {
	if r.EnergyBudget <= 0 {
		return fmt.Errorf("core: energy budget %v must be positive", r.EnergyBudget)
	}
	if r.MaxDelay <= 0 {
		return fmt.Errorf("core: max delay %v must be positive", r.MaxDelay)
	}
	return nil
}

// OperatingPoint is a concrete protocol configuration and its metrics.
type OperatingPoint struct {
	// Params is the protocol parameter vector (see Model.Params for the
	// meaning of each coordinate).
	Params opt.Vector
	// Energy is the bottleneck node's energy over one window, in joules.
	Energy float64
	// Delay is the worst-case expected end-to-end delay, in seconds.
	Delay float64
}

// Tradeoff is the complete result of playing the energy-delay game for
// one protocol under one set of requirements.
type Tradeoff struct {
	// EnergyOptimal solves (P1): minimal energy subject to MaxDelay.
	// Its metrics are the paper's (Ebest, Lworst).
	EnergyOptimal OperatingPoint
	// DelayOptimal solves (P2): minimal delay subject to EnergyBudget.
	// Its metrics are the paper's (Eworst, Lbest).
	DelayOptimal OperatingPoint
	// WorstEnergy and WorstDelay form the disagreement point.
	WorstEnergy float64
	WorstDelay  float64
	// Bargain is the Nash Bargaining Solution: the fair compromise the
	// framework recommends deploying.
	Bargain OperatingPoint
	// FairnessEnergy and FairnessDelay are the proportional-fairness
	// coordinates of the bargain (equal on linear frontiers).
	FairnessEnergy float64
	FairnessDelay  float64
	// Degenerate reports that the frontier offered no strict joint
	// improvement over the disagreement point and the bargain is the
	// feasibility fallback.
	Degenerate bool
	// BudgetExceeded reports (relaxed mode only) that no configuration
	// meets both requirements at once and Bargain is the best-effort
	// point: it honours MaxDelay but spends more than EnergyBudget.
	BudgetExceeded bool
}

// GameFor builds the nbs.Game for a protocol model under the given
// requirements: player A is energy, player B is delay.
func GameFor(m macmodel.Model, req Requirements) nbs.Game {
	return nbs.Game{
		CostA:      m.Energy,
		CostB:      m.Delay,
		BudgetA:    req.EnergyBudget,
		BudgetB:    req.MaxDelay,
		Bounds:     m.Bounds(),
		Structural: m.Structural(),
	}
}

// Optimize plays the full game for the model and returns the trade-off.
// It returns an error wrapping nbs.ErrInfeasible when the requirements
// cannot be met by any parameter setting of the protocol.
func Optimize(m macmodel.Model, req Requirements) (Tradeoff, error) {
	return optimize(m, req, false)
}

// OptimizeRelaxed behaves like Optimize but reproduces the paper's
// figure behaviour for over-constrained requirement pairs: instead of
// failing it returns the best-effort point that honours MaxDelay while
// exceeding EnergyBudget, flagged via Tradeoff.BudgetExceeded. The
// figure sweeps use this mode.
func OptimizeRelaxed(m macmodel.Model, req Requirements) (Tradeoff, error) {
	return optimize(m, req, true)
}

func optimize(m macmodel.Model, req Requirements, relax bool) (Tradeoff, error) {
	if err := req.Validate(); err != nil {
		return Tradeoff{}, err
	}
	g := GameFor(m, req)
	g.Relax = relax
	out, err := nbs.Solve(g)
	if err != nil {
		return Tradeoff{}, fmt.Errorf("core: %s under (Ebudget=%v J, Lmax=%v s): %w",
			m.Name(), req.EnergyBudget, req.MaxDelay, err)
	}
	fA, fB := out.Fairness()
	return Tradeoff{
		EnergyOptimal:  pointOf(out.BestA),
		DelayOptimal:   pointOf(out.BestB),
		WorstEnergy:    out.DisagreementA,
		WorstDelay:     out.DisagreementB,
		Bargain:        pointOf(out.Bargain),
		FairnessEnergy: fA,
		FairnessDelay:  fB,
		Degenerate:     out.Degenerate,
		BudgetExceeded: out.BudgetExceeded,
	}, nil
}

// FrontierContext traces the protocol's E-L Pareto curve up to
// MaxDelay — the continuous lines in the paper's figures — with the
// point-granular cancellation of nbs.FrontierContext.
func FrontierContext(ctx context.Context, m macmodel.Model, req Requirements, n int) ([]nbs.Point, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pts, err := nbs.FrontierContext(ctx, GameFor(m, req), req.MaxDelay, n)
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation is the caller's doing, not a solver failure;
			// surface it undecorated so errors.Is keeps working cheaply.
			return nil, err
		}
		return nil, fmt.Errorf("core: %s frontier: %w", m.Name(), err)
	}
	return pts, nil
}

func pointOf(p nbs.Point) OperatingPoint {
	return OperatingPoint{Params: p.X, Energy: p.A, Delay: p.B}
}
