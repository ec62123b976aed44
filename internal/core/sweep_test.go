package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
)

// grid lists the requirement pairs of budgets × delays, budget-major: a
// single budget gives the paper's Figure 1 series, a single delay bound
// its Figure 2 series.
func grid(budgets, delays []float64) []Requirements {
	reqs := make([]Requirements, 0, len(budgets)*len(delays))
	for _, b := range budgets {
		for _, d := range delays {
			reqs = append(reqs, Requirements{EnergyBudget: b, MaxDelay: d})
		}
	}
	return reqs
}

// mustSweep runs Sweep on an uncancellable context, which never fails.
func mustSweep(t *testing.T, m macmodel.Model, reqs []Requirements, workers int) []SweepPoint {
	t.Helper()
	pts, err := Sweep(context.Background(), m, reqs, workers)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	return pts
}

// TestSweepMaxDelayFavorsEnergyPlayer reproduces the paper's Figure 1
// claim: relaxing the delay bound moves the agreement in favour of the
// energy player — bargained energy falls (weakly) as Lmax grows.
func TestSweepMaxDelayFavorsEnergyPlayer(t *testing.T) {
	for _, name := range []string{"xmac", "dmac", "lmac"} {
		m := model(t, name)
		pts := mustSweep(t, m, grid([]float64{PaperEnergyBudget}, PaperDelays()), 0)
		if len(pts) != 6 {
			t.Fatalf("%s: %d sweep points", name, len(pts))
		}
		prevE := math.Inf(1)
		for _, p := range pts {
			if p.Err != nil {
				t.Fatalf("%s: Lmax=%v: %v", name, p.Requirements.MaxDelay, p.Err)
			}
			e := p.Tradeoff.Bargain.Energy
			if e > prevE*1.02+1e-9 {
				t.Errorf("%s: bargain energy rose from %v to %v when relaxing Lmax to %v",
					name, prevE, e, p.Requirements.MaxDelay)
			}
			prevE = e
		}
	}
}

// TestSweepEnergyBudgetFavorsDelayPlayer reproduces the paper's Figure 2
// claim: raising the energy budget moves the agreement in favour of the
// delay player — bargained delay falls (weakly) as Ebudget grows.
func TestSweepEnergyBudgetFavorsDelayPlayer(t *testing.T) {
	for _, name := range []string{"xmac", "dmac"} {
		m := model(t, name)
		pts := mustSweep(t, m, grid(PaperBudgets(), []float64{PaperMaxDelay}), 0)
		prevL := math.Inf(1)
		for _, p := range pts {
			if p.Err != nil {
				t.Fatalf("%s: Ebudget=%v: %v", name, p.Requirements.EnergyBudget, p.Err)
			}
			l := p.Tradeoff.Bargain.Delay
			if l > prevL*1.02+1e-9 {
				t.Errorf("%s: bargain delay rose from %v to %v when raising Ebudget to %v",
					name, prevL, l, p.Requirements.EnergyBudget)
			}
			prevL = l
		}
	}
}

// TestXMACSaturatesWithLooseDeadlines reproduces the Figure 1(a)
// annotation: for X-MAC the trade-off points for Lmax in the 3..6 s
// range coincide — the delay bound stops binding once it passes the
// protocol's unconstrained optimum.
func TestXMACSaturatesWithLooseDeadlines(t *testing.T) {
	m := model(t, "xmac")
	pts := mustSweep(t, m, grid([]float64{PaperEnergyBudget}, []float64{4, 5, 6}), 0)
	ref := pts[0].Tradeoff.Bargain
	for _, p := range pts[1:] {
		if p.Err != nil {
			t.Fatalf("Lmax=%v: %v", p.Requirements.MaxDelay, p.Err)
		}
		b := p.Tradeoff.Bargain
		if math.Abs(b.Energy-ref.Energy) > 0.05*ref.Energy+1e-9 {
			t.Errorf("Lmax=%v: bargain energy %v differs from saturated %v",
				p.Requirements.MaxDelay, b.Energy, ref.Energy)
		}
	}
}

// TestXMACSaturatesWithLargeBudgets reproduces the Figure 2(a)
// annotation: X-MAC's points for Ebudget 0.04..0.06 J coincide because
// the delay-optimal configuration hits the wakeup-interval floor.
func TestXMACSaturatesWithLargeBudgets(t *testing.T) {
	m := model(t, "xmac")
	pts := mustSweep(t, m, grid([]float64{0.045, 0.05, 0.06}, []float64{PaperMaxDelay}), 0)
	ref := pts[0].Tradeoff.Bargain
	for _, p := range pts[1:] {
		if p.Err != nil {
			t.Fatalf("Ebudget=%v: %v", p.Requirements.EnergyBudget, p.Err)
		}
		b := p.Tradeoff.Bargain
		if math.Abs(b.Delay-ref.Delay) > 0.05*ref.Delay+1e-9 {
			t.Errorf("Ebudget=%v: bargain delay %v differs from saturated %v",
				p.Requirements.EnergyBudget, b.Delay, ref.Delay)
		}
	}
}

// TestProtocolOrderingAtTightDeadline reproduces the figures' energy-axis
// ordering: under a tight 1-second deadline the bargained energies order
// X-MAC < DMAC < LMAC.
func TestProtocolOrderingAtTightDeadline(t *testing.T) {
	energies := map[string]float64{}
	for _, name := range []string{"xmac", "dmac", "lmac"} {
		m := model(t, name)
		tr, err := Optimize(m, Requirements{EnergyBudget: 10, MaxDelay: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		energies[name] = tr.Bargain.Energy
	}
	if !(energies["xmac"] < energies["dmac"] && energies["dmac"] < energies["lmac"]) {
		t.Errorf("protocol ordering violated: %v", energies)
	}
}

// TestLMACTightestBudgetBestEffort documents a divergence from the
// paper: our reconstructed LMAC cannot meet Ebudget=0.01 J within
// Lmax=6 s (its control-tracking floor is higher than the original
// model's). In the figure sweep the cell must carry the best-effort
// point — delay bound honoured, budget exceeded — exactly how the
// paper's own over-budget LMAC points behave.
func TestLMACTightestBudgetBestEffort(t *testing.T) {
	m := model(t, "lmac")
	pts := mustSweep(t, m, grid(PaperBudgets(), []float64{PaperMaxDelay}), 0)
	first := pts[0]
	if first.Err != nil {
		t.Fatalf("Ebudget=0.01: relaxed sweep errored: %v", first.Err)
	}
	if !first.Tradeoff.BudgetExceeded {
		t.Errorf("Ebudget=0.01: expected a budget-exceeded best-effort point, got E=%v",
			first.Tradeoff.Bargain.Energy)
	}
	if first.Tradeoff.Bargain.Energy <= first.Requirements.EnergyBudget {
		t.Errorf("best-effort point E=%v should exceed the %v budget",
			first.Tradeoff.Bargain.Energy, first.Requirements.EnergyBudget)
	}
	if first.Tradeoff.Bargain.Delay > PaperMaxDelay+1e-6 {
		t.Errorf("best-effort point must honour Lmax: delay %v", first.Tradeoff.Bargain.Delay)
	}
	for _, p := range pts[1:] {
		if p.Err != nil {
			t.Errorf("Ebudget=%v: %v", p.Requirements.EnergyBudget, p.Err)
		}
		if p.Tradeoff.BudgetExceeded {
			t.Errorf("Ebudget=%v: unexpectedly flagged budget-exceeded", p.Requirements.EnergyBudget)
		}
	}
	// The strict API must refuse the same cell instead.
	if _, err := Optimize(m, Requirements{EnergyBudget: 0.01, MaxDelay: PaperMaxDelay}); err == nil {
		t.Error("strict Optimize accepted an unattainable requirement pair")
	}
}

// TestSweepMarksInfeasibleCells: a cell no parameters can meet carries
// an error wrapping nbs.ErrInfeasible, and a feasible cell none.
func TestSweepMarksInfeasibleCells(t *testing.T) {
	m := model(t, "xmac")
	pts := mustSweep(t, m, []Requirements{{EnergyBudget: 1e-9, MaxDelay: 0.001}}, 1)
	if len(pts) != 1 || !errors.Is(pts[0].Err, nbs.ErrInfeasible) {
		t.Error("hopeless cell not reported as infeasible")
	}
	ok := mustSweep(t, m, []Requirements{{EnergyBudget: PaperEnergyBudget, MaxDelay: 3}}, 1)
	if ok[0].Err != nil {
		t.Errorf("feasible cell flagged infeasible: %v", ok[0].Err)
	}
}

func TestPaperConstants(t *testing.T) {
	if n := len(PaperDelays()); n != 6 {
		t.Errorf("PaperDelays: %d values, want 6", n)
	}
	if n := len(PaperBudgets()); n != 6 {
		t.Errorf("PaperBudgets: %d values, want 6", n)
	}
	if PaperDelays()[5] != PaperMaxDelay {
		t.Error("figure constants inconsistent: largest swept delay should equal the fixed Lmax")
	}
	if PaperBudgets()[5] != PaperEnergyBudget {
		t.Error("figure constants inconsistent: largest swept budget should equal the fixed Ebudget")
	}
}

func TestDefaultEnvMatchesModels(t *testing.T) {
	// Guard: the sweeps above rely on every protocol building cleanly
	// against the default environment.
	for _, name := range macmodel.Names() {
		if _, err := macmodel.New(name, macmodel.Default()); err != nil {
			t.Errorf("New(%s, Default): %v", name, err)
		}
	}
}
