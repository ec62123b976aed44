package edmac_test

import (
	"context"
	"reflect"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// TestLossyScenarioShiftsBargain asserts the tentpole end to end: the
// lossy builtin twins (same topology, traffic and radio as their
// perfect counterparts, lossy links added) must surface a sub-1 link
// PRR through the analytic bridge and move the Nash bargain — the game
// visibly reacts to link quality.
func TestLossyScenarioShiftsBargain(t *testing.T) {
	pairs := [][2]string{
		{"ring-baseline", "ring-lossy"},
		{"disk-meadow", "meadow-shadowed"},
	}
	cli := newClient(t)
	for _, pair := range pairs {
		perfectSpec, ok := edmac.BuiltinScenario(pair[0])
		if !ok {
			t.Fatalf("missing builtin %s", pair[0])
		}
		lossySpec, ok := edmac.BuiltinScenario(pair[1])
		if !ok {
			t.Fatalf("missing builtin %s", pair[1])
		}
		perfect, err := perfectSpec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		lossy, err := lossySpec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		if perfect.LinkPRR != 0 {
			t.Errorf("%s: perfect scenario carries LinkPRR %v, want 0 (unset)", pair[0], perfect.LinkPRR)
		}
		if lossy.LinkPRR <= 0 || lossy.LinkPRR >= 1 {
			t.Fatalf("%s: LinkPRR = %v, want inside (0, 1)", pair[1], lossy.LinkPRR)
		}
		req := edmac.OptimizeRequest{
			Protocol: edmac.XMAC, Scenario: &perfect, Requirements: edmac.PaperRequirements(), Relaxed: true,
		}
		a, err := cli.Optimize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.Scenario = &lossy
		b, err := cli.Optimize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if a.Result.Bargain.Params[0] == b.Result.Bargain.Params[0] {
			t.Errorf("%s vs %s: identical xmac bargain %v — the game ignored link quality",
				pair[0], pair[1], a.Result.Bargain.Params)
		}
	}
}

// TestSimulateLossyScenario runs a lossy builtin at packet level and
// asserts the channel machinery surfaces in the public report with
// sound accounting.
func TestSimulateLossyScenario(t *testing.T) {
	sp, ok := edmac.BuiltinScenario("ring-lossy")
	if !ok {
		t.Fatal("missing builtin ring-lossy")
	}
	if got := sp.ChannelKind(); got != "bernoulli" {
		t.Fatalf("ChannelKind = %q, want bernoulli", got)
	}
	sc, err := sp.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cli := newClient(t)
	ctx := context.Background()
	res, err := cli.Optimize(ctx, edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Scenario: &sc, Requirements: edmac.PaperRequirements(), Relaxed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := edmac.SimulateRequest{
		Protocol: edmac.XMAC, Spec: &sp, Params: res.Result.Bargain.Params,
		Options: edmac.SimOptions{Duration: 400, Seed: 11},
	}
	sim, err := cli.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rep := sim.Sim
	if rep.Generated == 0 {
		t.Fatal("nothing generated")
	}
	if rep.ChannelLosses == 0 {
		t.Error("lossy scenario recorded no channel losses")
	}
	if rep.Captures == 0 {
		t.Error("capture-enabled scenario recorded no captures")
	}
	if rep.DeliveryRatio > 1 {
		t.Errorf("DeliveryRatio = %v, want <= 1", rep.DeliveryRatio)
	}
	if rep.Delivered+0 > rep.Generated {
		t.Errorf("delivered %d > generated %d", rep.Delivered, rep.Generated)
	}
	// Byte-stable replay: the report is a pure function of its inputs.
	again, err := cli.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again.Sim) {
		t.Error("lossy scenario simulation not reproducible")
	}
}
