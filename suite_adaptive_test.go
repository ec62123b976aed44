package edmac_test

import (
	"bytes"
	"context"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// phasedBuiltins returns the registry's non-stationary scenarios.
func phasedBuiltins(t *testing.T) []edmac.ScenarioSpec {
	t.Helper()
	var specs []edmac.ScenarioSpec
	for _, sp := range edmac.BuiltinScenarios() {
		if sp.Phased() {
			specs = append(specs, sp)
		}
	}
	if len(specs) == 0 {
		t.Fatal("no phased builtin scenarios")
	}
	return specs
}

// TestAdaptiveBeatsStatic is the headline acceptance check: on at least
// one builtin non-stationary scenario, the per-phase re-bargaining
// runtime beats the frozen static bargain — lower bottleneck energy at
// equal-or-better delivery ratio and p95 delay. The suite golden runs
// the same cells, so the win is committed evidence, not a flake.
func TestAdaptiveBeatsStatic(t *testing.T) {
	report, err := newClient(t).Suite(context.Background(), edmac.SuiteRequest{
		Scenarios: phasedBuiltins(t),
		Protocols: []edmac.Protocol{edmac.XMAC, edmac.BMAC, edmac.DMAC, edmac.LMAC},
		Options:   edmac.SuiteOptions{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, c := range report.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.Scenario, c.Protocol, c.Err)
			continue
		}
		if !c.Adaptive {
			t.Errorf("cell %s/%s not adaptive despite the spec's per-phase mode", c.Scenario, c.Protocol)
			continue
		}
		if len(c.Phases) < 2 {
			t.Errorf("cell %s/%s has %d phases", c.Scenario, c.Protocol, len(c.Phases))
		}
		if c.Sim == nil || c.StaticSim == nil {
			t.Errorf("cell %s/%s missing a sim side", c.Scenario, c.Protocol)
			continue
		}
		if c.Sim.P95Delay == nil || c.StaticSim.P95Delay == nil {
			continue
		}
		if c.Sim.BottleneckEnergy < c.StaticSim.BottleneckEnergy &&
			c.Sim.DeliveryRatio >= c.StaticSim.DeliveryRatio &&
			*c.Sim.P95Delay <= *c.StaticSim.P95Delay {
			wins++
			t.Logf("%s/%s: adaptive wins (E %.5f < %.5f, delivery %.4f >= %.4f, p95 %.3f <= %.3f)",
				c.Scenario, c.Protocol,
				c.Sim.BottleneckEnergy, c.StaticSim.BottleneckEnergy,
				c.Sim.DeliveryRatio, c.StaticSim.DeliveryRatio,
				*c.Sim.P95Delay, *c.StaticSim.P95Delay)
		}
	}
	if wins == 0 {
		t.Error("adaptive beat static on no (scenario, protocol) cell")
	}
}

// TestRunSuiteAdaptiveDeterminism asserts the adaptive path keeps the
// suite's byte-identical determinism contract across worker counts.
func TestRunSuiteAdaptiveDeterminism(t *testing.T) {
	cli := newClient(t)
	req := edmac.SuiteRequest{
		Scenarios: phasedBuiltins(t)[:1],
		Protocols: []edmac.Protocol{edmac.XMAC, edmac.LMAC},
		Options:   edmac.SuiteOptions{Duration: 200, Seed: 3, Adaptive: true},
	}
	parallel, err := cli.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Options.Workers = 1
	sequential, err := cli.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := parallel.JSON()
	b, _ := sequential.JSON()
	if !bytes.Equal(a, b) {
		t.Error("parallel and sequential adaptive suite JSON differ")
	}
}

// staticModePhasedSpec is a phased scenario that declares adaptation
// mode "static": only SuiteOptions.Adaptive can make it adapt.
const staticModePhasedSpec = `{
  "version": 2,
  "name": "two-act-static",
  "seed": 4,
  "topology": {"kind": "line", "nodes": 6, "spacing": 0.8},
  "phases": [
    {"traffic": {"kind": "periodic", "rate": 0.01}, "duration": 75},
    {"traffic": {"kind": "periodic", "rate": 0.05}, "duration": 75}
  ],
  "adaptation": {"mode": "static"},
  "radio": "cc2420",
  "payload": 32,
  "window": 60
}`

// TestRunSuiteAdaptiveFlag asserts SuiteOptions.Adaptive forces phased
// scenarios to adapt — including one whose spec says static — while
// leaving stationary ones alone, and that without the flag a
// static-mode phased cell really stays static.
func TestRunSuiteAdaptiveFlag(t *testing.T) {
	stationary, ok := edmac.BuiltinScenario("ring-baseline")
	if !ok {
		t.Fatal("ring-baseline missing")
	}
	staticMode := parseSpec(t, []byte(staticModePhasedSpec))
	phased := phasedBuiltins(t)[0]
	cli := newClient(t)
	ctx := context.Background()

	// Without the flag: the spec's own mode decides. The static-mode
	// spec plays the classic one-bargain pipeline; the per-phase
	// builtin adapts anyway.
	report, err := cli.Suite(ctx, edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{staticMode, phased},
		Protocols: []edmac.Protocol{edmac.XMAC},
		Options:   edmac.SuiteOptions{Duration: 150, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range report.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Scenario, c.Err)
		}
		switch c.Scenario {
		case staticMode.Name():
			if c.Adaptive || c.Phases != nil || c.StaticSim != nil || c.Sim == nil {
				t.Errorf("static-mode phased cell adapted without the flag: %+v", c)
			}
		case phased.Name():
			if !c.Adaptive {
				t.Errorf("per-phase builtin did not adapt on its own mode")
			}
		}
	}

	// With the flag: every phased scenario adapts, stationary ones are
	// untouched.
	report, err = cli.Suite(ctx, edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{stationary, staticMode},
		Protocols: []edmac.Protocol{edmac.XMAC},
		Options:   edmac.SuiteOptions{Duration: 150, Seed: 2, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range report.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s failed: %s", c.Scenario, c.Err)
		}
		switch c.Scenario {
		case stationary.Name():
			if c.Adaptive || c.Phases != nil || c.StaticSim != nil {
				t.Errorf("stationary cell gained adaptive state: %+v", c)
			}
		case staticMode.Name():
			if !c.Adaptive || c.Sim == nil || c.StaticSim == nil || len(c.Phases) != 2 {
				t.Errorf("static-mode phased cell did not adapt under the flag")
			}
		}
	}

	// SCPMAC stays analytic-only but still reports per-phase bargains.
	report, err = cli.Suite(ctx, edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{phased},
		Protocols: []edmac.Protocol{edmac.SCPMAC},
		Options:   edmac.SuiteOptions{Duration: 150, Seed: 2, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := report.Cells[0]
	if cell.Sim != nil || cell.StaticSim != nil {
		t.Error("scpmac cell simulated")
	}
	if !cell.Adaptive || len(cell.Phases) == 0 {
		t.Error("scpmac cell missing per-phase bargains")
	}
	for i, ph := range cell.Phases {
		if ph.Err != "" {
			t.Errorf("scpmac phase %d: %s", i, ph.Err)
		}
		if ph.Analytic == nil {
			t.Errorf("scpmac phase %d missing analytic point", i)
		}
	}
}

// TestSimulateScenarioZeroGenerated is the regression test for the
// delivery-ratio definition: a workload too slow to emit a packet
// within the run must report ratio 0 (not NaN) and still encode to
// JSON inside a suite.
func TestSimulateScenarioZeroGenerated(t *testing.T) {
	spec := []byte(`{
  "version": 1,
  "name": "near-silent",
  "seed": 1,
  "topology": {"kind": "line", "nodes": 5, "spacing": 0.8},
  "traffic": {"kind": "periodic", "rate": 1e-7},
  "radio": "cc2420",
  "payload": 32,
  "window": 60
}`)
	sp := parseSpec(t, spec)
	cli := newClient(t)
	ctx := context.Background()
	sim, err := cli.Simulate(ctx, edmac.SimulateRequest{
		Protocol: edmac.XMAC, Spec: &sp, Params: []float64{0.3}, Options: edmac.SimOptions{Duration: 5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Sim
	if rep.Generated != 0 {
		t.Fatalf("near-silent run generated %d packets; tighten the rate", rep.Generated)
	}
	if rep.DeliveryRatio != 0 {
		t.Errorf("DeliveryRatio %v for a zero-generated run, want 0", rep.DeliveryRatio)
	}

	report, err := cli.Suite(ctx, edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{sp},
		Protocols: []edmac.Protocol{edmac.XMAC},
		Options:   edmac.SuiteOptions{Duration: 5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell := report.Cells[0]
	if cell.Err != "" {
		t.Fatalf("cell failed: %s", cell.Err)
	}
	if cell.Sim == nil || cell.Sim.Generated != 0 {
		t.Fatalf("expected a zero-generated sim cell, got %+v", cell.Sim)
	}
	if cell.Sim.DeliveryRatio != 0 {
		t.Errorf("suite DeliveryRatio %v, want 0", cell.Sim.DeliveryRatio)
	}
	if _, err := report.JSON(); err != nil {
		t.Errorf("suite JSON failed on a zero-generated cell: %v", err)
	}
}
