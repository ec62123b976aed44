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
// ring topology, periodic traffic at 1/SampleInterval, the same radio,
// payload and window, and a Bernoulli channel at LinkPRR when set.
func ringSpec(t *testing.T, s edmac.Scenario) edmac.ScenarioSpec {
	channel := ""
	if s.LinkPRR != 0 {
		channel = fmt.Sprintf(`"channel": {"model": "bernoulli", "prr": %v},`, s.LinkPRR)
	}
	return parseSpec(t, []byte(fmt.Sprintf(`{"version": 3, "name": "ring-scenario", %s
		"topology": {"kind": "ring", "depth": %d, "density": %d}, "traffic": {"kind": "periodic", "rate": %v},
		"radio": %q, "payload": %d, "window": %v}`, channel, s.Depth, s.Density, 1/s.SampleInterval, s.Radio, s.Payload, s.Window)))
}

// parseSpec decodes a JSON scenario spec, failing the test on error.
func parseSpec(t *testing.T, data []byte) edmac.ScenarioSpec {
	t.Helper()
	var sp edmac.ScenarioSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatalf("scenario spec: %v", err)
	}
	return sp
}

// Client.Batch must reproduce sequential Simulate calls byte for byte,
// across every simulable protocol and several seeds. Both must also
// encode exactly as a Simulate of the equivalent inline spec, and fail
// with its error text: a ring scenario and a ring spec are one
// workload on one simulation path. A ring validation still checks
// against the Scenario as given, not the spec's equivalent ring.
func TestSimulateBatchMatchesSequential(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	s := batchScenario()
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
		what := fmt.Sprintf("run %d (%s seed %d)", i, runs[i].Protocol, runs[i].Options.Seed)
		ring, alone, viaSpec := ringThreeWays(t, cli, s, runs[i])
		if out.Err != nil || ring.Err != nil || alone.Err != nil || viaSpec.Err != nil {
			t.Fatalf("%s: batch %v; ring %v; batch of one %v; spec %v", what, out.Err, ring.Err, alone.Err, viaSpec.Err)
		}
		mustEqualJSON(t, viaSpec.Report, ring.Report, what+": ring scenario vs inline spec")
		mustEqualJSON(t, viaSpec.Report, out.Report, what+": batch vs inline spec")
		mustEqualJSON(t, viaSpec.Report, alone.Report, what+": batch of one vs inline spec")
	}

	o := edmac.SimOptions{Duration: 60}
	for what, r := range map[string]edmac.BatchRun{
		"scpmac":         {Protocol: edmac.SCPMAC, Params: []float64{1, 0.01}, Options: o},
		"500-slot frame": {Protocol: edmac.LMAC, Params: []float64{500, 0.05}, Options: o},
		"slot below min": {Protocol: edmac.LMAC, Params: []float64{15, 0.0006}, Options: o},
		"wrong arity":    {Protocol: edmac.XMAC, Params: []float64{0.2, 0.3}, Options: o},
	} {
		ring, batch, viaSpec := ringThreeWays(t, cli, s, r)
		if viaSpec.Err == nil || fmt.Sprint(ring.Err) != viaSpec.Err.Error() || fmt.Sprint(batch.Err) != viaSpec.Err.Error() {
			t.Errorf("%s: error texts differ\nring  %v\nbatch %v\nspec  %v", what, ring.Err, batch.Err, viaSpec.Err)
		}
	}

	// The spec's equivalent ring re-derives density and rate from the
	// placement (1/(1/49) is not even 49), so only the Scenario as
	// given reproduces Evaluate's numbers.
	s.SampleInterval = 49
	validated, err := cli.Simulate(ctx, edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25}, Options: o, Validate: true,
	})
	eval, evalErr := cli.Evaluate(ctx, edmac.EvaluateRequest{Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25}})
	if err != nil || evalErr != nil {
		t.Fatalf("validate: %v; Evaluate: %v", err, evalErr)
	}
	if a := validated.Analytic; a.Energy != eval.Energy || a.Delay != eval.Delay {
		t.Errorf("validation at 49 s checks against %v J, %v s; Evaluate gives %v J, %v s",
			a.Energy, a.Delay, eval.Energy, eval.Delay)
	}
}

// A ring scenario's LinkPRR reaches the simulator as a Bernoulli
// channel: Simulate and Batch record channel losses and encode exactly
// like the inline ring spec with that channel block.
func TestRingLinkPRRReachesSimulator(t *testing.T) {
	s := edmac.Scenario{Depth: 3, Density: 3, SampleInterval: 120, Window: 60, Payload: 32, Radio: "cc2420", LinkPRR: 0.8}
	run := edmac.BatchRun{Protocol: edmac.XMAC, Params: []float64{0.25}, Options: edmac.SimOptions{Duration: 400, Seed: 1}}
	ring, batch, viaSpec := ringThreeWays(t, newClient(t), s, run)
	if ring.Err != nil || batch.Err != nil || viaSpec.Err != nil {
		t.Fatalf("ring: %v; batch: %v; spec: %v", ring.Err, batch.Err, viaSpec.Err)
	}
	if ring.Report.ChannelLosses == 0 {
		t.Errorf("link_prr %v recorded no channel losses", s.LinkPRR)
	}
	mustEqualJSON(t, viaSpec.Report, ring.Report, "ring scenario vs inline spec")
	mustEqualJSON(t, viaSpec.Report, batch.Report, "batch vs inline spec")
}

// ringThreeWays runs r on the ring scenario s through Simulate and
// Batch, and on its inline ring spec through Simulate.
func ringThreeWays(t *testing.T, cli *edmac.Client, s edmac.Scenario, r edmac.BatchRun) (ring, batch, spec edmac.BatchOutcome) {
	t.Helper()
	ctx, sp := context.Background(), ringSpec(t, s)
	req := edmac.SimulateRequest{Protocol: r.Protocol, Scenario: &s, Params: r.Params, Options: r.Options}
	rep, err := cli.Simulate(ctx, req)
	ring = edmac.BatchOutcome{Run: r, Report: rep.Sim, Err: err}
	req.Scenario, req.Spec = nil, &sp
	rep, err = cli.Simulate(ctx, req)
	spec = edmac.BatchOutcome{Run: r, Report: rep.Sim, Err: err}
	out, err := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: []edmac.BatchRun{r}})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	return ring, out.Outcomes[0], spec
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
