package edmac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// TestBuiltinScenarioRegistry asserts the public registry surface: at
// least eight uniquely named scenarios, each round-trippable through its
// own JSON and resolvable by name.
func TestBuiltinScenarioRegistry(t *testing.T) {
	specs := edmac.BuiltinScenarios()
	if len(specs) < 8 {
		t.Fatalf("only %d builtin scenarios; the registry promises at least 8", len(specs))
	}
	seen := map[string]bool{}
	for _, sp := range specs {
		if sp.Name() == "" || seen[sp.Name()] {
			t.Fatalf("bad or duplicate scenario name %q", sp.Name())
		}
		seen[sp.Name()] = true
		if _, ok := edmac.BuiltinScenario(sp.Name()); !ok {
			t.Errorf("BuiltinScenario(%q) not found", sp.Name())
		}
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: JSON: %v", sp.Name(), err)
		}
		back := parseSpec(t, data)
		if back.Name() != sp.Name() || back.TopologyKind() != sp.TopologyKind() || back.TrafficKind() != sp.TrafficKind() {
			t.Errorf("%s: round trip changed identity", sp.Name())
		}
	}
	if _, ok := edmac.BuiltinScenario("no-such"); ok {
		t.Error("phantom scenario resolved")
	}
}

// TestLoadScenario asserts a spec written to disk loads and simulates.
func TestLoadScenario(t *testing.T) {
	sp, _ := edmac.BuiltinScenario("tunnel-chain")
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := edmac.LoadScenario(path)
	if err != nil {
		t.Fatalf("LoadScenario: %v", err)
	}
	if loaded.Name() != sp.Name() {
		t.Fatalf("loaded %q, want %q", loaded.Name(), sp.Name())
	}
	if _, err := edmac.LoadScenario(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

// TestScenarioEquivalentRing asserts the analytic mapping of a spec is a
// valid model environment the game can actually be played in.
func TestScenarioEquivalentRing(t *testing.T) {
	sp, _ := edmac.BuiltinScenario("grid-campus")
	s, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Depth < 1 || s.Density < 1 || s.SampleInterval <= 0 {
		t.Fatalf("degenerate analytic scenario %+v", s)
	}
	req := edmac.ParamsRequest{Protocol: edmac.XMAC, Scenario: &s}
	if _, err := newClient(t).Params(context.Background(), req); err != nil {
		t.Fatalf("analytic model rejects the mapped scenario: %v", err)
	}
}

// TestSimulateScenario asserts scenario simulation reproducibility and
// its rejection cases.
func TestSimulateScenario(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	sp, _ := edmac.BuiltinScenario("disk-bursty")
	req := edmac.SimulateRequest{
		Protocol: edmac.XMAC, Spec: &sp, Params: []float64{0.3},
		Options: edmac.SimOptions{Duration: 250, Seed: 9},
	}
	a, err := cli.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.Seed != 9 {
		t.Errorf("report seed %d, want 9", a.Sim.Seed)
	}
	if a.Sim.Generated == 0 {
		t.Error("bursty scenario generated nothing")
	}
	b, err := cli.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("equal seeds diverged:\n%+v\n%+v", a.Sim, b.Sim)
	}
	req.Options.Seed = 10
	c, err := cli.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim.Collisions == c.Sim.Collisions && a.Sim.Generated == c.Sim.Generated && a.Sim.MeanDelay == c.Sim.MeanDelay {
		t.Error("different seeds produced an identical run")
	}

	for what, bad := range map[string]edmac.SimulateRequest{
		"scpmac simulated":     {Protocol: edmac.SCPMAC, Spec: &sp, Params: []float64{0.3}, Options: req.Options},
		"zero spec simulated":  {Protocol: edmac.XMAC, Spec: &edmac.ScenarioSpec{}, Params: []float64{0.3}, Options: req.Options},
		"wrong arity accepted": {Protocol: edmac.DMAC, Spec: &sp, Params: []float64{0.3}, Options: req.Options},
	} {
		if _, err := cli.Simulate(ctx, bad); err == nil {
			t.Error(what)
		}
	}
}

// TestRunSuiteDeterminism asserts the suite contract: byte-identical
// JSON for equal inputs, regardless of worker count.
func TestRunSuiteDeterminism(t *testing.T) {
	specs := []edmac.ScenarioSpec{}
	for _, name := range []string{"ring-baseline", "grid-eventwatch"} {
		sp, ok := edmac.BuiltinScenario(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		specs = append(specs, sp)
	}
	protocols := []edmac.Protocol{edmac.XMAC, edmac.LMAC, edmac.SCPMAC}
	opts := edmac.SuiteOptions{Duration: 200, Seed: 3}

	cli := newClient(t)
	req := edmac.SuiteRequest{Scenarios: specs, Protocols: protocols, Options: opts}
	parallel, err := cli.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Options.Workers = 1
	sequential, err := cli.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sequential.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("parallel and sequential suite JSON differ")
	}
	if len(parallel.Cells) != len(specs)*len(protocols) {
		t.Errorf("%d cells, want %d", len(parallel.Cells), len(specs)*len(protocols))
	}
	for _, c := range parallel.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s failed: %s", c.Scenario, c.Protocol, c.Err)
		}
		if c.Protocol != edmac.SCPMAC && c.Sim == nil {
			t.Errorf("cell %s/%s has no simulation", c.Scenario, c.Protocol)
		}
		if c.Protocol == edmac.SCPMAC && c.Sim != nil {
			t.Errorf("scpmac cell %s simulated", c.Scenario)
		}
	}
}

// TestRunSuiteInputs asserts input validation and cancellation.
func TestRunSuiteInputs(t *testing.T) {
	cli := newClient(t)
	sp, _ := edmac.BuiltinScenario("ring-baseline")
	for what, req := range map[string]edmac.SuiteRequest{
		"empty scenario list": {Protocols: edmac.Protocols()},
		"empty protocol list": {Scenarios: []edmac.ScenarioSpec{sp}},
		"zero spec":           {Scenarios: []edmac.ScenarioSpec{{}}, Protocols: edmac.Protocols()},
	} {
		if _, err := cli.Suite(context.Background(), req); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.Suite(ctx, edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{sp}, Protocols: edmac.Protocols(), Options: edmac.SuiteOptions{Duration: 60},
	}); err == nil {
		t.Error("cancelled suite returned a report")
	}
}
