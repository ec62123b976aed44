package core

import (
	"context"
	"errors"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
)

func model(t *testing.T, name string) macmodel.Model {
	t.Helper()
	m, err := macmodel.New(name, macmodel.Default())
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return m
}

func paperReq() Requirements {
	return Requirements{EnergyBudget: PaperEnergyBudget, MaxDelay: PaperMaxDelay}
}

func TestRequirementsValidate(t *testing.T) {
	if err := paperReq().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := (Requirements{EnergyBudget: 0, MaxDelay: 1}).Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	if err := (Requirements{EnergyBudget: 1, MaxDelay: -1}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
}

// TestOptimizeInvariants checks, for every protocol under the paper's
// headline requirements, the structural facts the game guarantees.
func TestOptimizeInvariants(t *testing.T) {
	const tol = 1e-6
	for _, name := range macmodel.Names() {
		m := model(t, name)
		tr, err := Optimize(m, paperReq())
		if err != nil {
			t.Fatalf("%s: Optimize: %v", name, err)
		}
		// P1 and P2 respect their own constraints.
		if tr.EnergyOptimal.Delay > PaperMaxDelay+tol {
			t.Errorf("%s: P1 delay %v exceeds Lmax", name, tr.EnergyOptimal.Delay)
		}
		if tr.DelayOptimal.Energy > PaperEnergyBudget+tol {
			t.Errorf("%s: P2 energy %v exceeds budget", name, tr.DelayOptimal.Energy)
		}
		// Optima are no worse than the other player's point on their own
		// metric.
		if tr.EnergyOptimal.Energy > tr.DelayOptimal.Energy+tol {
			t.Errorf("%s: Ebest %v above Eworst %v", name, tr.EnergyOptimal.Energy, tr.DelayOptimal.Energy)
		}
		if tr.DelayOptimal.Delay > tr.EnergyOptimal.Delay+tol {
			t.Errorf("%s: Lbest %v above Lworst %v", name, tr.DelayOptimal.Delay, tr.EnergyOptimal.Delay)
		}
		// Disagreement point is (Eworst, Lworst).
		if tr.WorstEnergy != tr.DelayOptimal.Energy || tr.WorstDelay != tr.EnergyOptimal.Delay {
			t.Errorf("%s: disagreement (%v, %v) mismatches P1/P2 (%v, %v)",
				name, tr.WorstEnergy, tr.WorstDelay, tr.DelayOptimal.Energy, tr.EnergyOptimal.Delay)
		}
		// The bargain lands inside the application box and inside the
		// rectangle spanned by best and worst values.
		b := tr.Bargain
		if b.Energy > PaperEnergyBudget+tol || b.Delay > PaperMaxDelay+tol {
			t.Errorf("%s: bargain (%v J, %v s) violates requirements", name, b.Energy, b.Delay)
		}
		if b.Energy > tr.WorstEnergy+tol || b.Delay > tr.WorstDelay+tol {
			t.Errorf("%s: bargain (%v, %v) outside disagreement rectangle (%v, %v)",
				name, b.Energy, b.Delay, tr.WorstEnergy, tr.WorstDelay)
		}
		if b.Energy < tr.EnergyOptimal.Energy-tol {
			t.Errorf("%s: bargain energy %v beats the energy-optimal %v", name, b.Energy, tr.EnergyOptimal.Energy)
		}
		if b.Delay < tr.DelayOptimal.Delay-tol {
			t.Errorf("%s: bargain delay %v beats the delay-optimal %v", name, b.Delay, tr.DelayOptimal.Delay)
		}
		// Parameters are inside the model box.
		if !m.Bounds().Contains(b.Params) {
			t.Errorf("%s: bargain params %v escape bounds", name, b.Params)
		}
		// Fairness coordinates live in [0, 1] for non-degenerate games.
		if !tr.Degenerate {
			for _, f := range []float64{tr.FairnessEnergy, tr.FairnessDelay} {
				if f < -tol || f > 1+tol {
					t.Errorf("%s: fairness coordinate %v outside [0,1]", name, f)
				}
			}
		}
	}
}

func TestOptimizeInfeasibleRequirements(t *testing.T) {
	m := model(t, "xmac")
	// A microjoule budget with a millisecond deadline is impossible.
	_, err := Optimize(m, Requirements{EnergyBudget: 1e-6, MaxDelay: 1e-3})
	if err == nil {
		t.Fatal("impossible requirements accepted")
	}
	if !errors.Is(err, nbs.ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
}

func TestOptimizeRejectsBadRequirements(t *testing.T) {
	m := model(t, "xmac")
	if _, err := Optimize(m, Requirements{}); err == nil {
		t.Error("zero requirements accepted")
	}
}

func TestFrontierForModels(t *testing.T) {
	for _, name := range []string{"xmac", "lmac"} {
		m := model(t, name)
		pts, err := FrontierContext(context.Background(), m, paperReq(), 12)
		if err != nil {
			t.Fatalf("%s: Frontier: %v", name, err)
		}
		if len(pts) < 6 {
			t.Fatalf("%s: frontier too sparse: %d points", name, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].A > pts[i-1].A+1e-6 {
				t.Errorf("%s: frontier energy rises with delay at point %d (%v after %v)",
					name, i, pts[i].A, pts[i-1].A)
			}
		}
	}
}

func TestFrontierValidatesRequirements(t *testing.T) {
	m := model(t, "xmac")
	if _, err := FrontierContext(context.Background(), m, Requirements{}, 10); err == nil {
		t.Error("invalid requirements accepted")
	}
}
