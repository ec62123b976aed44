package edmac_test

import (
	"context"
	"math"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

func TestFrontierErrorPaths(t *testing.T) {
	cli := newClient(t)
	for what, req := range map[string]edmac.FrontierRequest{
		"unknown protocol":      {Protocol: "smac", Requirements: edmac.PaperRequirements(), Points: 10},
		"zero requirements":     {Protocol: edmac.XMAC, Points: 10},
		"single-point frontier": {Protocol: edmac.XMAC, Requirements: edmac.PaperRequirements(), Points: 1},
	} {
		if _, err := cli.Frontier(context.Background(), req); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestParamsErrorPaths(t *testing.T) {
	cli := newClient(t)
	if _, err := cli.Params(context.Background(), edmac.ParamsRequest{Protocol: "smac"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad := edmac.DefaultScenario()
	bad.Payload = 0
	if _, err := cli.Params(context.Background(), edmac.ParamsRequest{Protocol: edmac.XMAC, Scenario: &bad}); err == nil {
		t.Error("zero payload accepted")
	}
}

func TestCompareWithBrokenScenario(t *testing.T) {
	bad := edmac.DefaultScenario()
	bad.Radio = "nope"
	rep, err := newClient(t).Compare(context.Background(), edmac.CompareRequest{
		Scenario: &bad, Requirements: edmac.PaperRequirements(),
	})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(rep.Comparisons) != 3 {
		t.Fatalf("Compare returned %d entries", len(rep.Comparisons))
	}
	for _, c := range rep.Comparisons {
		if c.Err == nil {
			t.Errorf("%s: broken scenario produced no error", c.Protocol)
		}
	}
	if _, ok := edmac.Best(rep.Comparisons); ok || rep.Best != -1 {
		t.Errorf("a winner (index %d) among all-failed comparisons", rep.Best)
	}
}

func TestResultParamsAreCopies(t *testing.T) {
	cli := newClient(t)
	req := edmac.OptimizeRequest{Protocol: edmac.XMAC, Requirements: edmac.PaperRequirements()}
	rep, err := cli.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	orig := rep.Result.Bargain.Params[0]
	rep.Result.Bargain.Params[0] = 999
	rep2, err := cli.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep2.Result.Bargain.Params[0] != orig {
		t.Error("mutating a result leaked into a later optimization")
	}
}

func TestEvaluateSCPMAC(t *testing.T) {
	rep, err := newClient(t).Evaluate(context.Background(), edmac.EvaluateRequest{
		Protocol: edmac.SCPMAC, Params: []float64{1.0},
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	e, l := rep.Energy, rep.Delay
	// Synchronized polling at a 1 s period: sub-millijoule-per-second
	// power and a few seconds of delay.
	if e <= 0 || e > 0.1 {
		t.Errorf("scpmac energy %v J implausible", e)
	}
	if l < 2 || l > 4 {
		t.Errorf("scpmac delay %v s implausible for a 1 s period over 5 hops", l)
	}
}

func TestSimulateErrorPaths(t *testing.T) {
	cli := newClient(t)
	bad := edmac.DefaultScenario()
	bad.Depth = 0
	o := edmac.SimOptions{Duration: 10}
	for what, req := range map[string]edmac.SimulateRequest{
		"wrong arity":      {Protocol: edmac.XMAC, Params: []float64{0.2, 0.3}, Options: o},
		"broken scenario":  {Protocol: edmac.XMAC, Scenario: &bad, Params: []float64{0.2}, Options: o},
		"unknown protocol": {Protocol: "smac", Params: []float64{0.2}, Options: o},
	} {
		if _, err := cli.Simulate(context.Background(), req); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

func TestValidateOutOfBoxParamsFallBack(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := edmac.DefaultScenario()
	s.Depth = 2
	s.Density = 2
	s.SampleInterval = 300
	// Tw = 8 s sits outside the model's admissible box [0.064, 5]; the
	// validation must still evaluate the raw model rather than fail.
	rep, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{8},
		Options: edmac.SimOptions{Duration: 300, Seed: 3}, Validate: true,
	})
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if e := rep.Analytic.Energy; e <= 0 || math.IsNaN(e) {
		t.Errorf("analytic energy %v unusable", e)
	}
}

func TestBMACSimulatesViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	s := edmac.DefaultScenario()
	s.Depth = 2
	s.Density = 2
	s.SampleInterval = 60
	sim, err := newClient(t).Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.BMAC, Scenario: &s, Params: []float64{0.2},
		Options: edmac.SimOptions{Duration: 600, Seed: 4},
	})
	if err != nil {
		t.Fatalf("Simulate(bmac): %v", err)
	}
	rep := sim.Sim
	if rep.DeliveryRatio < 0.8 {
		t.Errorf("bmac delivery %v below 0.8 (collisions %d)", rep.DeliveryRatio, rep.Collisions)
	}
}

func TestPaperProtocolsSubset(t *testing.T) {
	all := map[edmac.Protocol]bool{}
	for _, p := range edmac.Protocols() {
		all[p] = true
	}
	for _, p := range edmac.PaperProtocols() {
		if !all[p] {
			t.Errorf("paper protocol %s missing from Protocols()", p)
		}
	}
	if len(edmac.PaperProtocols()) != 3 {
		t.Errorf("paper evaluates 3 protocols, got %d", len(edmac.PaperProtocols()))
	}
}
