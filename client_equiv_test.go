package edmac_test

// The Client's configuration-equivalence contract: settings that only
// change how an answer is produced — the result cache, the client's
// default scenario, the worker count — never change the answer. Each
// test pairs two clients (or two requests) whose answers must be
// byte-identical as canonical JSON, error texts included, across all
// five protocols and on a lossy builtin scenario.

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

// equivScenario is a deployment every protocol's model accepts, busy
// enough that simulations deliver packets (finite delay statistics).
// LMAC's bargained frame is too short to schedule on it, so its
// simulation pair compares the rejection text.
func equivScenario() edmac.Scenario {
	s := edmac.DefaultScenario()
	s.SampleInterval = 120
	return s
}

// asJSON canonicalizes any value for byte comparison.
func asJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

// mustEqualJSON asserts two values encode identically.
func mustEqualJSON(t *testing.T, want, got any, what string) {
	t.Helper()
	w, g := asJSON(t, want), asJSON(t, got)
	if string(w) != string(g) {
		t.Errorf("%s: outputs diverge\nwant: %s\ngot:  %s", what, w, g)
	}
}

// mustAgree asserts two answers to one request are the same: equal
// error texts, and reports that encode identically.
func mustAgree(t *testing.T, what string, want, got any, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: errors diverge: %v vs %v", what, wantErr, gotErr)
	}
	mustEqualJSON(t, want, got, what)
}

func newClient(t testing.TB, opts ...edmac.Option) *edmac.Client {
	t.Helper()
	cli, err := edmac.NewClient(opts...)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return cli
}

// secondAnswer sends c the same request twice and returns the second
// answer, reporting whether c's cache served it: a hit and no new miss.
func secondAnswer[Req, Rep any](c *edmac.Client, call func(*edmac.Client, context.Context, Req) (Rep, error), req Req) (rep Rep, hit bool, err error) {
	ctx := context.Background()
	call(c, ctx, req)
	before := c.CacheStats()
	rep, err = call(c, ctx, req)
	after := c.CacheStats()
	return rep, after.Hits > before.Hits && after.Misses == before.Misses, err
}

func TestShimOptimizeAllProtocols(t *testing.T) {
	plain, cached := newClient(t), newClient(t, edmac.WithCache(16))
	s := equivScenario()
	for _, p := range edmac.Protocols() {
		req := edmac.OptimizeRequest{Protocol: p, Scenario: &s, Requirements: edmac.PaperRequirements(), Relaxed: true}
		want, wantErr := plain.Optimize(context.Background(), req)
		got, hit, gotErr := secondAnswer(cached, (*edmac.Client).Optimize, req)
		mustAgree(t, string(p)+" optimize", want, got, wantErr, gotErr)
		if !hit {
			t.Errorf("%s: repeated optimize missed the cache", p)
		}
	}
}

func TestShimOptimizeInfeasibleAgree(t *testing.T) {
	plain, cached := newClient(t), newClient(t, edmac.WithCache(16))
	s := equivScenario()
	req := edmac.OptimizeRequest{
		Protocol: edmac.LMAC, Scenario: &s, Requirements: edmac.Requirements{EnergyBudget: 0.01, MaxDelay: 6},
	}
	_, wantErr := plain.Optimize(context.Background(), req)
	_, hit, gotErr := secondAnswer(cached, (*edmac.Client).Optimize, req)
	if !hit {
		t.Error("repeated infeasible optimize missed the cache")
	}
	if !errors.Is(wantErr, edmac.ErrInfeasible) || !errors.Is(gotErr, edmac.ErrInfeasible) {
		t.Fatalf("infeasibility mismatch: uncached %v, cached %v", wantErr, gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error messages diverge: %q vs %q", wantErr, gotErr)
	}
}

func TestShimFrontierAllProtocols(t *testing.T) {
	plain, cached := newClient(t), newClient(t, edmac.WithCache(16))
	s := equivScenario()
	for _, p := range edmac.Protocols() {
		req := edmac.FrontierRequest{Protocol: p, Scenario: &s, Requirements: edmac.PaperRequirements(), Points: 8}
		want, wantErr := plain.Frontier(context.Background(), req)
		got, hit, gotErr := secondAnswer(cached, (*edmac.Client).Frontier, req)
		mustAgree(t, string(p)+" frontier", want, got, wantErr, gotErr)
		// Only traced frontiers are cached; a failed trace reruns.
		if hit != (wantErr == nil) {
			t.Errorf("%s: repeated frontier cache hit = %v with error %v", p, hit, wantErr)
		}
	}
}

func TestShimCompare(t *testing.T) {
	plain, cached := newClient(t), newClient(t, edmac.WithCache(16))
	s := equivScenario()
	req := edmac.CompareRequest{Scenario: &s, Requirements: edmac.PaperRequirements(), Protocols: edmac.Protocols()}
	want, wantErr := plain.Compare(context.Background(), req)
	got, hit, gotErr := secondAnswer(cached, (*edmac.Client).Compare, req)
	mustAgree(t, "compare", want, got, wantErr, gotErr)
	if !hit {
		t.Error("repeated compare missed the cache")
	}
	// Best indexes the winner Best() picks from the same entries.
	best, ok := edmac.Best(got.Comparisons)
	if ok != (got.Best >= 0) {
		t.Fatalf("winner presence mismatch: Best() %v, report index %d", ok, got.Best)
	}
	if ok && got.Comparisons[got.Best].Protocol != best.Protocol {
		t.Fatalf("winner mismatch: Best() %s, report %s", best.Protocol, got.Comparisons[got.Best].Protocol)
	}
}

func TestShimSweeps(t *testing.T) {
	plain, cached := newClient(t), newClient(t, edmac.WithCache(16))
	s := equivScenario()
	for _, p := range edmac.Protocols() {
		for _, req := range []edmac.SweepRequest{
			{Protocol: p, Scenario: &s, Axis: edmac.SweepDelay, Fixed: 0.06, Values: []float64{2, 6}},
			{Protocol: p, Scenario: &s, Axis: edmac.SweepEnergy, Fixed: 6, Values: []float64{0.03, 0.06}},
		} {
			want, wantErr := plain.Sweep(context.Background(), req)
			got, hit, gotErr := secondAnswer(cached, (*edmac.Client).Sweep, req)
			mustAgree(t, string(p)+" "+string(req.Axis)+" sweep", want, got, wantErr, gotErr)
			if !hit {
				t.Errorf("%s: repeated %s sweep missed the cache", p, req.Axis)
			}
		}
	}
}

func TestShimEvaluateAndParams(t *testing.T) {
	s := equivScenario()
	plain, scoped := newClient(t), newClient(t, edmac.WithScenario(s))
	ctx := context.Background()
	for _, p := range edmac.Protocols() {
		want, wantErr := plain.Params(ctx, edmac.ParamsRequest{Protocol: p, Scenario: &s})
		got, gotErr := scoped.Params(ctx, edmac.ParamsRequest{Protocol: p})
		mustAgree(t, string(p)+" params", want, got, wantErr, gotErr)

		// Evaluate at each parameter's midpoint — always admissible.
		params := make([]float64, len(got.Params))
		for i, sp := range got.Params {
			params[i] = (sp.Min + sp.Max) / 2
		}
		ewant, wantErr := plain.Evaluate(ctx, edmac.EvaluateRequest{Protocol: p, Scenario: &s, Params: params})
		egot, gotErr := scoped.Evaluate(ctx, edmac.EvaluateRequest{Protocol: p, Params: params})
		if wantErr != nil {
			t.Fatalf("%s evaluate: %v", p, wantErr)
		}
		mustAgree(t, string(p)+" evaluate", ewant, egot, wantErr, gotErr)
	}
}

// simProtocols are the four protocols the packet simulator implements.
func simProtocols() []edmac.Protocol {
	return []edmac.Protocol{edmac.XMAC, edmac.BMAC, edmac.DMAC, edmac.LMAC}
}

// bargainParams returns the protocol's relaxed bargain under s: a
// runnable vector for the simulator.
func bargainParams(t *testing.T, p edmac.Protocol, s edmac.Scenario) []float64 {
	t.Helper()
	rep, err := newClient(t).Optimize(context.Background(), edmac.OptimizeRequest{
		Protocol: p, Scenario: &s, Requirements: edmac.PaperRequirements(), Relaxed: true,
	})
	if err != nil {
		t.Fatalf("%s bargain for sim params: %v", p, err)
	}
	return rep.Result.Bargain.Params
}

func TestShimSimulateAllProtocols(t *testing.T) {
	s := equivScenario()
	plain, scoped := newClient(t), newClient(t, edmac.WithScenario(s))
	ctx := context.Background()
	o := edmac.SimOptions{Duration: 120, Seed: 3}
	for _, p := range simProtocols() {
		params := bargainParams(t, p, s)
		want, wantErr := plain.Simulate(ctx, edmac.SimulateRequest{Protocol: p, Scenario: &s, Params: params, Options: o})
		got, gotErr := scoped.Simulate(ctx, edmac.SimulateRequest{Protocol: p, Params: params, Options: o})
		mustAgree(t, string(p)+" simulate", want, got, wantErr, gotErr)
	}
	// SCPMAC is analytic-only either way, with the same rejection.
	_, wantErr := plain.Simulate(ctx, edmac.SimulateRequest{Protocol: edmac.SCPMAC, Scenario: &s, Params: []float64{1}, Options: o})
	_, gotErr := scoped.Simulate(ctx, edmac.SimulateRequest{Protocol: edmac.SCPMAC, Params: []float64{1}, Options: o})
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("scpmac rejection mismatch: %v vs %v", wantErr, gotErr)
	}
}

func TestShimValidate(t *testing.T) {
	s := equivScenario()
	plain, scoped := newClient(t), newClient(t, edmac.WithScenario(s))
	ctx := context.Background()
	req := edmac.SimulateRequest{
		Protocol: edmac.XMAC, Params: bargainParams(t, edmac.XMAC, s),
		Options: edmac.SimOptions{Duration: 400, Seed: 5}, Validate: true,
	}
	got, gotErr := scoped.Simulate(ctx, req)
	req.Scenario = &s
	want, wantErr := plain.Simulate(ctx, req)
	if wantErr != nil {
		t.Fatalf("validate: %v", wantErr)
	}
	mustAgree(t, "validate", want, got, wantErr, gotErr)
	if got.Analytic == nil || got.Analytic.EnergyRatio == nil || got.Analytic.DelayRatio == nil {
		t.Fatalf("validation carries no analytic check: %+v", got.Analytic)
	}
}

// TestShimSimulateScenarioLossy pins the two spellings of a builtin —
// the full Spec and its registry name — to the same run, on a lossy
// scenario with channel losses in play.
func TestShimSimulateScenarioLossy(t *testing.T) {
	cli := newClient(t)
	ctx := context.Background()
	sp, ok := edmac.BuiltinScenario("ring-lossy")
	if !ok {
		t.Fatal("ring-lossy missing from the registry")
	}
	an, err := sp.Scenario()
	if err != nil {
		t.Fatalf("analytic bridge: %v", err)
	}
	o := edmac.SimOptions{Duration: 120, Seed: 9}
	for _, p := range simProtocols() {
		params := bargainParams(t, p, an)
		want, wantErr := cli.Simulate(ctx, edmac.SimulateRequest{Protocol: p, Spec: &sp, Params: params, Options: o})
		got, gotErr := cli.Simulate(ctx, edmac.SimulateRequest{Protocol: p, ScenarioName: "ring-lossy", Params: params, Options: o})
		if wantErr != nil {
			t.Fatalf("%s lossy scenario simulate: %v", p, wantErr)
		}
		mustAgree(t, string(p)+" lossy scenario by name", want, got, wantErr, gotErr)
		if want.Sim.ChannelLosses == 0 {
			t.Errorf("%s: lossy scenario recorded no channel losses; the fixture is not exercising the channel", p)
		}
	}
}

func TestShimBatchAndSeeds(t *testing.T) {
	cli := newClient(t)
	s := equivScenario()
	params := bargainParams(t, edmac.XMAC, s)
	seeds := []int64{1, 2, 3}
	runs := make([]edmac.BatchRun, len(seeds))
	for i, seed := range seeds {
		runs[i] = edmac.BatchRun{Protocol: edmac.XMAC, Params: params, Options: edmac.SimOptions{Duration: 80, Seed: seed}}
	}
	ctx := context.Background()
	want, wantErr := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: runs, Workers: 1})
	got, gotErr := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: runs, Workers: 2})
	if wantErr != nil {
		t.Fatalf("batch: %v", wantErr)
	}
	for i, out := range want.Outcomes {
		if out.Err != nil {
			t.Fatalf("run %d errored: %v", i, out.Err)
		}
	}
	mustAgree(t, "batch outcomes", want, got, wantErr, gotErr)
}

// TestShimSuiteLossy pins the heaviest pairing: one and two suite
// workers produce byte-identical reports on a lossy scenario across an
// analytic-only and a simulated protocol.
func TestShimSuiteLossy(t *testing.T) {
	cli := newClient(t)
	sp, ok := edmac.BuiltinScenario("ring-lossy")
	if !ok {
		t.Fatal("ring-lossy missing")
	}
	req := edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{sp},
		Protocols: []edmac.Protocol{edmac.XMAC, edmac.SCPMAC},
		Options:   edmac.SuiteOptions{Duration: 40, Seed: 1, Workers: 1},
	}
	ctx := context.Background()
	serial, err := cli.Suite(ctx, req)
	if err != nil {
		t.Fatalf("1-worker suite: %v", err)
	}
	req.Options.Workers = 2
	pooled, err := cli.Suite(ctx, req)
	if err != nil {
		t.Fatalf("2-worker suite: %v", err)
	}
	serialJSON, err := serial.JSON()
	if err != nil {
		t.Fatalf("1-worker JSON: %v", err)
	}
	pooledJSON, err := pooled.JSON()
	if err != nil {
		t.Fatalf("2-worker JSON: %v", err)
	}
	if string(serialJSON) != string(pooledJSON) {
		t.Fatal("suite reports diverge between 1 and 2 workers")
	}
}
