package edmac_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// batchScenario is small enough that a table of runs finishes quickly.
func batchScenario() edmac.Scenario {
	return edmac.Scenario{
		Depth: 3, Density: 4, SampleInterval: 120, Window: 60, Payload: 32, Radio: "cc2420",
	}
}

// simParams maps each simulable protocol to a runnable parameter vector.
var simParams = map[edmac.Protocol][]float64{
	edmac.XMAC: {0.25},
	edmac.BMAC: {0.25},
	edmac.DMAC: {2.0, 0.05},
	edmac.LMAC: {15, 0.05},
}

// ringSpec spells a ring scenario out as an inline declarative spec:
// ring topology, periodic traffic at 1/SampleInterval, and the same
// radio, payload and window.
func ringSpec(t *testing.T, s edmac.Scenario) edmac.ScenarioSpec {
	t.Helper()
	data, err := json.Marshal(map[string]any{
		"version":  1,
		"name":     "ring-scenario",
		"topology": map[string]any{"kind": "ring", "depth": s.Depth, "density": s.Density},
		"traffic":  map[string]any{"kind": "periodic", "rate": 1 / s.SampleInterval},
		"radio":    s.Radio,
		"payload":  s.Payload,
		"window":   s.Window,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := edmac.ParseScenario(data)
	if err != nil {
		t.Fatalf("ParseScenario: %v", err)
	}
	return sp
}

// Client.Batch must reproduce sequential Simulate calls byte for byte,
// across every simulable protocol and several seeds. Both must also
// encode exactly as a Simulate of the equivalent inline spec: a ring
// scenario and a ring spec are one workload.
func TestSimulateBatchMatchesSequential(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	s := batchScenario()
	spec := ringSpec(t, s)
	var runs []edmac.BatchRun
	for _, p := range []edmac.Protocol{edmac.XMAC, edmac.BMAC, edmac.DMAC, edmac.LMAC} {
		for seed := int64(1); seed <= 2; seed++ {
			runs = append(runs, edmac.BatchRun{
				Protocol: p,
				Params:   simParams[p],
				Options:  edmac.SimOptions{Duration: 300, Seed: seed},
			})
		}
	}
	rep, err := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: runs, Workers: 4})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if len(rep.Outcomes) != len(runs) {
		t.Fatalf("got %d outcomes, want %d", len(rep.Outcomes), len(runs))
	}
	for i, out := range rep.Outcomes {
		if out.Err != nil {
			t.Fatalf("run %d (%s): %v", i, runs[i].Protocol, out.Err)
		}
		want, err := cli.Simulate(ctx, edmac.SimulateRequest{
			Protocol: runs[i].Protocol, Scenario: &s, Params: runs[i].Params, Options: runs[i].Options,
		})
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		if !reflect.DeepEqual(want.Sim, out.Report) {
			t.Errorf("run %d (%s seed %d): batch report differs from sequential\nwant %+v\ngot  %+v",
				i, runs[i].Protocol, runs[i].Options.Seed, want.Sim, out.Report)
		}
		viaSpec, err := cli.Simulate(ctx, edmac.SimulateRequest{
			Protocol: runs[i].Protocol, Spec: &spec, Params: runs[i].Params, Options: runs[i].Options,
		})
		if err != nil {
			t.Fatalf("spec run %d: %v", i, err)
		}
		what := fmt.Sprintf("run %d (%s seed %d)", i, runs[i].Protocol, runs[i].Options.Seed)
		mustEqualJSON(t, viaSpec.Sim, want.Sim, what+": ring scenario vs inline spec")
		mustEqualJSON(t, viaSpec.Sim, out.Report, what+": batch vs inline spec")
	}
}

func TestSimulateSeeds(t *testing.T) {
	s := batchScenario()
	seeds := []int64{3, 5, 8}
	runs := make([]edmac.BatchRun, len(seeds))
	for i, seed := range seeds {
		runs[i] = edmac.BatchRun{Protocol: edmac.XMAC, Params: []float64{0.25},
			Options: edmac.SimOptions{Duration: 300, Seed: seed}}
	}
	rep, err := newClient(t).Batch(context.Background(), edmac.BatchRequest{Scenario: &s, Runs: runs, Workers: 2})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	outcomes := rep.Outcomes
	if len(outcomes) != len(seeds) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(seeds))
	}
	for i, out := range outcomes {
		if out.Err != nil {
			t.Fatalf("seed %d: %v", seeds[i], out.Err)
		}
		if out.Run.Options.Seed != seeds[i] {
			t.Errorf("outcome %d ran seed %d, want %d", i, out.Run.Options.Seed, seeds[i])
		}
	}
	// Distinct seeds must explore distinct sample phases.
	if reflect.DeepEqual(outcomes[0].Report, outcomes[1].Report) {
		t.Error("different seeds produced identical reports")
	}
}

func TestSimulateBatchRejectsSCPMAC(t *testing.T) {
	s := batchScenario()
	rep, err := newClient(t).Batch(context.Background(), edmac.BatchRequest{Scenario: &s, Workers: 2, Runs: []edmac.BatchRun{
		{Protocol: edmac.SCPMAC, Params: []float64{1, 0.01}, Options: edmac.SimOptions{Duration: 60}},
		{Protocol: edmac.XMAC, Params: []float64{0.25}, Options: edmac.SimOptions{Duration: 60}},
	}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	outcomes := rep.Outcomes
	if outcomes[0].Err == nil {
		t.Error("scpmac batch entry did not error")
	}
	if outcomes[1].Err != nil {
		t.Errorf("valid entry failed: %v", outcomes[1].Err)
	}
}

// Client.Sweep must agree cell-for-cell with relaxed Client.Optimize,
// along both requirement axes.
func TestSweepsMatchOptimizeRelaxed(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	check := func(p edmac.Protocol, axis edmac.SweepAxis, fixed float64, values []float64) {
		t.Helper()
		rep, err := cli.Sweep(ctx, edmac.SweepRequest{Protocol: p, Axis: axis, Fixed: fixed, Values: values})
		if err != nil {
			t.Fatalf("%s %s: %v", p, axis, err)
		}
		if len(rep.Points) != len(values) {
			t.Fatalf("%s %s: %d cells, want %d", p, axis, len(rep.Points), len(values))
		}
		for i, pt := range rep.Points {
			req := edmac.Requirements{EnergyBudget: fixed, MaxDelay: values[i]}
			if axis == edmac.SweepEnergy {
				req = edmac.Requirements{EnergyBudget: values[i], MaxDelay: fixed}
			}
			want, wantErr := cli.Optimize(ctx, edmac.OptimizeRequest{Protocol: p, Requirements: req, Relaxed: true})
			if (wantErr == nil) != (pt.Err == nil) {
				t.Errorf("%s %s cell %d: err %v vs sequential %v", p, axis, i, pt.Err, wantErr)
				continue
			}
			if wantErr == nil && !reflect.DeepEqual(want.Result, pt.Result) {
				t.Errorf("%s %s cell %d: sweep result differs from relaxed Optimize", p, axis, i)
			}
		}
	}
	for _, p := range edmac.PaperProtocols() {
		check(p, edmac.SweepDelay, 0.06, edmac.PaperDelays())
	}
	// Figure 2 direction, one protocol suffices for the wiring.
	check(edmac.XMAC, edmac.SweepEnergy, 6, edmac.PaperBudgets())
}
