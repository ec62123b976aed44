package edmac

import (
	"context"
	"encoding/json"

	"github.com/edmac-project/edmac/internal/core"
)

// SweepPoint is one cell of a requirement sweep: the requirements, the
// solved game, and a non-nil Err (wrapping ErrInfeasible) for cells the
// protocol cannot satisfy even in relaxed mode. Infeasible cells are
// part of the result because the figures must report them.
type SweepPoint struct {
	Requirements Requirements
	Result       Result
	Err          error
}

// MarshalJSON encodes the cell with Err surfaced as its message string
// (as Comparison does), so wire consumers see infeasible cells
// explicitly instead of an empty result.
func (p SweepPoint) MarshalJSON() ([]byte, error) {
	w := struct {
		Requirements Requirements `json:"requirements"`
		Result       *Result      `json:"result,omitempty"`
		Error        string       `json:"error,omitempty"`
	}{Requirements: p.Requirements}
	if p.Err != nil {
		w.Error = p.Err.Error()
	} else {
		w.Result = &p.Result
	}
	return json.Marshal(w)
}

// sweep plays the relaxed game at every requirement pair on the worker
// pool: the series behind Client.Sweep, ordered like reqs.
func sweep(ctx context.Context, p Protocol, s Scenario, reqs []core.Requirements, workers int) ([]SweepPoint, error) {
	m, err := s.model(p)
	if err != nil {
		return nil, err
	}
	pts, err := core.Sweep(ctx, m, reqs, workers)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(pts))
	for i, pt := range pts {
		req := Requirements{EnergyBudget: pt.Requirements.EnergyBudget, MaxDelay: pt.Requirements.MaxDelay}
		out[i] = SweepPoint{Requirements: req, Err: pt.Err}
		if pt.Err == nil {
			out[i].Result = resultOf(p, req, pt.Tradeoff)
		}
	}
	return out, nil
}

// PaperDelays returns the Lmax sweep of the paper's Figure 1 (1..6 s).
func PaperDelays() []float64 { return core.PaperDelays() }

// PaperBudgets returns the Ebudget sweep of the paper's Figure 2
// (0.01..0.06 J).
func PaperBudgets() []float64 { return core.PaperBudgets() }
