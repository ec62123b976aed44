package edmac_test

import (
	"context"
	"errors"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

func TestOptimizeXMACPaperRequirements(t *testing.T) {
	rep, err := newClient(t).Optimize(context.Background(), edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Requirements: edmac.PaperRequirements(),
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	res := rep.Result
	if res.Protocol != edmac.XMAC {
		t.Errorf("protocol = %v", res.Protocol)
	}
	if len(res.Bargain.Params) != 1 {
		t.Fatalf("xmac bargain params = %v, want 1 value", res.Bargain.Params)
	}
	if res.Bargain.Energy > 0.06+1e-9 || res.Bargain.Delay > 6+1e-9 {
		t.Errorf("bargain (%v J, %v s) violates requirements", res.Bargain.Energy, res.Bargain.Delay)
	}
	if res.BudgetExceeded || res.Degenerate {
		t.Errorf("unexpected flags: exceeded=%v degenerate=%v", res.BudgetExceeded, res.Degenerate)
	}
	// The bargain interpolates between the two optima.
	if res.Bargain.Energy < res.EnergyOptimal.Energy-1e-9 {
		t.Error("bargain beats the energy optimum")
	}
	if res.Bargain.Delay < res.DelayOptimal.Delay-1e-9 {
		t.Error("bargain beats the delay optimum")
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	_, err := newClient(t).Optimize(context.Background(), edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Requirements: edmac.Requirements{EnergyBudget: 1e-9, MaxDelay: 1e-3},
	})
	if !errors.Is(err, edmac.ErrInfeasible) {
		t.Errorf("error = %v, want ErrInfeasible", err)
	}
}

// TestProtocolRegistryInSync guards against drift between the facade's
// protocol list and the internal model registry.
func TestProtocolRegistryInSync(t *testing.T) {
	cli := newClient(t)
	for _, p := range edmac.Protocols() {
		if _, err := cli.Params(context.Background(), edmac.ParamsRequest{Protocol: p}); err != nil {
			t.Errorf("protocol %s not constructible: %v", p, err)
		}
	}
}

func TestOptimizeAllProtocols(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	for _, p := range edmac.Protocols() {
		rep, err := cli.Optimize(ctx, edmac.OptimizeRequest{
			Protocol: p, Requirements: edmac.Requirements{EnergyBudget: 2, MaxDelay: 6},
		})
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		res := rep.Result
		prep, err := cli.Params(ctx, edmac.ParamsRequest{Protocol: p})
		if err != nil {
			t.Fatalf("%s: Params: %v", p, err)
		}
		specs := prep.Params
		if len(res.Bargain.Params) != len(specs) {
			t.Errorf("%s: %d params vs %d specs", p, len(res.Bargain.Params), len(specs))
		}
		for i, v := range res.Bargain.Params {
			if v < specs[i].Min-1e-9 || v > specs[i].Max+1e-9 {
				t.Errorf("%s: param %s = %v outside [%v, %v]",
					p, specs[i].Name, v, specs[i].Min, specs[i].Max)
			}
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	cli := newClient(t)
	for what, breakIt := range map[string]func(*edmac.Scenario){
		"unknown radio":        func(s *edmac.Scenario) { s.Radio = "nrf24" },
		"zero sample interval": func(s *edmac.Scenario) { s.SampleInterval = 0 },
		"zero depth":           func(s *edmac.Scenario) { s.Depth = 0 },
	} {
		bad := edmac.DefaultScenario()
		breakIt(&bad)
		if _, err := cli.Optimize(context.Background(), edmac.OptimizeRequest{
			Protocol: edmac.XMAC, Scenario: &bad, Requirements: edmac.PaperRequirements(),
		}); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestFrontierMonotone(t *testing.T) {
	rep, err := newClient(t).Frontier(context.Background(), edmac.FrontierRequest{
		Protocol: edmac.XMAC, Requirements: edmac.PaperRequirements(), Points: 10,
	})
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	pts := rep.Points
	if len(pts) < 5 {
		t.Fatalf("frontier too sparse: %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Delay < pts[i-1].Delay-1e-9 {
			t.Error("frontier not sorted by delay")
		}
		if pts[i].Energy > pts[i-1].Energy+1e-9 {
			t.Error("frontier energy not non-increasing")
		}
	}
}

func TestCompareAndBest(t *testing.T) {
	rep, err := newClient(t).Compare(context.Background(), edmac.CompareRequest{
		Requirements: edmac.PaperRequirements(),
	})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(rep.Comparisons) != 3 {
		t.Fatalf("Compare returned %d entries", len(rep.Comparisons))
	}
	best, ok := edmac.Best(rep.Comparisons)
	if !ok {
		t.Fatal("no feasible protocol under the paper requirements")
	}
	if best.Protocol != edmac.XMAC {
		t.Errorf("best protocol = %v, want xmac (lowest-energy bargain)", best.Protocol)
	}
}

func TestEvaluate(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	rep, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Params: []float64{0.5}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rep.Energy <= 0 || rep.Delay <= 0 {
		t.Errorf("Evaluate = (%v, %v), want positive metrics", rep.Energy, rep.Delay)
	}
	if _, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Params: []float64{0.5, 1}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Params: []float64{99}}); err == nil {
		t.Error("out-of-box parameters accepted")
	}
}

func TestOptimizeRelaxedFlagsBestEffort(t *testing.T) {
	// LMAC at (0.01 J, 6 s) is jointly unattainable; the relaxed call
	// must return a flagged best-effort point, the strict call must fail.
	cli := newClient(t)
	req := edmac.OptimizeRequest{Protocol: edmac.LMAC, Requirements: edmac.Requirements{EnergyBudget: 0.01, MaxDelay: 6}}
	if _, err := cli.Optimize(context.Background(), req); !errors.Is(err, edmac.ErrInfeasible) {
		t.Fatalf("strict error = %v, want ErrInfeasible", err)
	}
	req.Relaxed = true
	rep, err := cli.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("relaxed: %v", err)
	}
	res := rep.Result
	if !res.BudgetExceeded {
		t.Error("BudgetExceeded not set")
	}
	if res.Bargain.Delay > 6+1e-9 {
		t.Errorf("best-effort point must honour MaxDelay, got %v s", res.Bargain.Delay)
	}
}

func TestSimulateQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := edmac.DefaultScenario()
	s.Depth = 3
	s.Density = 3
	s.SampleInterval = 120
	sim, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25},
		Options: edmac.SimOptions{Duration: 600, Seed: 1},
	})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	rep := sim.Sim
	if rep.Generated == 0 || rep.DeliveryRatio < 0.8 {
		t.Errorf("delivery %v of %d packets", rep.DeliveryRatio, rep.Generated)
	}
	if rep.BottleneckEnergy <= 0 {
		t.Error("no energy measured")
	}
}

func TestSimulateRejectsSCPMAC(t *testing.T) {
	if _, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.SCPMAC, Params: []float64{0.5},
	}); err == nil {
		t.Error("scpmac simulation accepted")
	}
}

func TestValidateFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := edmac.DefaultScenario()
	s.Depth = 3
	s.Density = 3
	s.SampleInterval = 120
	rep, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25},
		Options: edmac.SimOptions{Duration: 900, Seed: 2}, Validate: true,
	})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	a := rep.Analytic
	if a.EnergyRatio == nil || a.DelayRatio == nil {
		t.Fatalf("validation carries no ratios: %+v", a)
	}
	if r := *a.EnergyRatio; r < 0.3 || r > 3 {
		t.Errorf("energy ratio %v implausible", r)
	}
	if r := *a.DelayRatio; r < 0.3 || r > 3 {
		t.Errorf("delay ratio %v implausible", r)
	}
}
