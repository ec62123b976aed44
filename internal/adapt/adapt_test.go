package adapt

import (
	"testing"

	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/scenario"
)

func materialized(t *testing.T, name string) *scenario.Materialized {
	t.Helper()
	spec, ok := scenario.ByName(name)
	if !ok {
		t.Fatalf("builtin %q missing", name)
	}
	m, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPlanPhases asserts the controller re-bargains every phase the run
// reaches from that phase's own load, and that the surge phase actually
// deploys different parameters from the calm ones — the point of
// adapting.
func TestPlanPhases(t *testing.T) {
	m := materialized(t, "meadow-stormcycle")
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 3 + 1.2*float64(m.Network.Depth())}
	plan, err := PlanPhases(m, "xmac", req, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range plan.Phases {
		if ph.Err != nil {
			t.Fatalf("phase %d: %v", ph.Index, ph.Err)
		}
	}
	if len(plan.Phases) != 3 {
		t.Fatalf("%d phases planned, want 3", len(plan.Phases))
	}
	wantSpans := [][2]float64{{0, 160}, {160, 240}, {240, 400}}
	for i, ph := range plan.Phases {
		if ph.Start != wantSpans[i][0] || ph.End != wantSpans[i][1] {
			t.Errorf("phase %d span [%v, %v], want %v", i, ph.Start, ph.End, wantSpans[i])
		}
		if ph.MeanRate <= 0 {
			t.Errorf("phase %d mean rate %v", i, ph.MeanRate)
		}
		if len(ph.Tradeoff.Bargain.Params) == 0 {
			t.Errorf("phase %d bargained no parameters", i)
		}
	}
	calm, storm := plan.Phases[0], plan.Phases[1]
	if storm.MeanRate <= calm.MeanRate {
		t.Fatalf("storm rate %v not above calm rate %v", storm.MeanRate, calm.MeanRate)
	}
	if storm.Tradeoff.Bargain.Params[0] >= calm.Tradeoff.Bargain.Params[0] {
		t.Errorf("storm wakeup interval %v not below calm %v: controller did not adapt",
			storm.Tradeoff.Bargain.Params[0], calm.Tradeoff.Bargain.Params[0])
	}
	// Symmetric calm phases re-bargain to the same point.
	if got, want := plan.Phases[2].Tradeoff.Bargain.Params[0], calm.Tradeoff.Bargain.Params[0]; got != want {
		t.Errorf("identical loads bargained differently: %v vs %v", got, want)
	}
}

// TestPlanPhasesShortRun asserts windows the run never reaches are
// omitted.
func TestPlanPhasesShortRun(t *testing.T) {
	m := materialized(t, "meadow-stormcycle")
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 12}
	plan, err := PlanPhases(m, "xmac", req, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Phases) != 1 {
		t.Fatalf("%d phases for a run inside phase 0, want 1", len(plan.Phases))
	}
	if plan.Phases[0].End != 100 {
		t.Errorf("clipped phase ends at %v, want 100", plan.Phases[0].End)
	}
}

// TestPlanPhasesRejects exercises the error paths.
func TestPlanPhasesRejects(t *testing.T) {
	req := core.Requirements{EnergyBudget: 0.06, MaxDelay: 10}
	if _, err := PlanPhases(nil, "xmac", req, 100); err == nil {
		t.Error("nil scenario accepted")
	}
	stationary := materialized(t, "ring-baseline")
	if _, err := PlanPhases(stationary, "xmac", req, 100); err == nil {
		t.Error("stationary scenario accepted")
	}
	phased := materialized(t, "meadow-stormcycle")
	if _, err := PlanPhases(phased, "xmac", req, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := PlanPhases(phased, "xmac", core.Requirements{}, 100); err == nil {
		t.Error("zero requirements accepted")
	}
	// An unknown protocol fails per phase, not wholesale: the plan
	// carries it in a phase's error.
	plan, err := PlanPhases(phased, "nomac", req, 400)
	if err != nil {
		t.Fatalf("unknown protocol: %v", err)
	}
	failed := false
	for _, ph := range plan.Phases {
		failed = failed || ph.Err != nil
	}
	if !failed {
		t.Error("unknown protocol planned successfully")
	}
}
