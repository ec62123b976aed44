package edmac_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	edmac "github.com/edmac-project/edmac"
)

func TestNewClientOptionErrors(t *testing.T) {
	if _, err := edmac.NewClient(edmac.WithScenario(edmac.Scenario{})); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestClientDefaultScenario proves nil-scenario requests resolve to the
// configured default: a client built around a custom deployment answers
// exactly like an explicit-scenario request against it.
func TestClientDefaultScenario(t *testing.T) {
	s := edmac.DefaultScenario()
	s.SampleInterval = 300
	cli, err := edmac.NewClient(edmac.WithScenario(s))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	req := edmac.PaperRequirements()
	implicit, err := cli.Optimize(context.Background(), edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Requirements: req, Relaxed: true,
	})
	if err != nil {
		t.Fatalf("implicit: %v", err)
	}
	explicit, err := newClient(t).Optimize(context.Background(), edmac.OptimizeRequest{
		Protocol: edmac.XMAC, Scenario: &s, Requirements: req, Relaxed: true,
	})
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	mustEqualJSON(t, explicit, implicit, "default-scenario resolution")
}

func TestClientCacheHitsAndIsolation(t *testing.T) {
	cli, err := edmac.NewClient(edmac.WithCache(8))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	req := edmac.OptimizeRequest{Protocol: edmac.XMAC, Requirements: edmac.PaperRequirements(), Relaxed: true}

	first, err := cli.Optimize(ctx, req)
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	if stats := cli.CacheStats(); stats.Hits != 0 || stats.Misses == 0 || stats.Entries != 1 {
		t.Fatalf("after miss: %+v", stats)
	}
	// Corrupt the returned report; the cache must be unaffected.
	first.Result.Bargain.Params[0] = -1

	second, err := cli.Optimize(ctx, req)
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if stats := cli.CacheStats(); stats.Hits != 1 {
		t.Fatalf("after hit: %+v", stats)
	}
	if second.Result.Bargain.Params[0] == -1 {
		t.Fatal("cache returned the caller-mutated slice")
	}
	baseline, err := newClient(t).Optimize(ctx, req)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	mustEqualJSON(t, baseline, second, "cached result")
}

// TestClientCachesInfeasibility: an infeasible verdict is as expensive
// to compute as a solution and just as deterministic, so it caches too,
// preserving errors.Is.
func TestClientCachesInfeasibility(t *testing.T) {
	cli, err := edmac.NewClient(edmac.WithCache(8))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	ctx := context.Background()
	req := edmac.OptimizeRequest{
		Protocol:     edmac.LMAC,
		Requirements: edmac.Requirements{EnergyBudget: 0.01, MaxDelay: 6},
	}
	_, err1 := cli.Optimize(ctx, req)
	_, err2 := cli.Optimize(ctx, req)
	if !errors.Is(err1, edmac.ErrInfeasible) || !errors.Is(err2, edmac.ErrInfeasible) {
		t.Fatalf("errors: %v, %v", err1, err2)
	}
	if stats := cli.CacheStats(); stats.Hits != 1 {
		t.Fatalf("infeasible verdict not cached: %+v", stats)
	}
}

// TestClientBaseSeedPolicy: the base seed XORs into every request
// seed, and the effective seed is echoed, so reports stay
// self-describing.
func TestClientBaseSeedPolicy(t *testing.T) {
	const base = int64(0x5eed)
	seeded, err := edmac.NewClient(edmac.WithBaseSeed(base))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	plain := newClient(t)
	s := edmac.Scenario{Depth: 3, Density: 4, SampleInterval: 120, Window: 60, Payload: 32, Radio: "cc2420"}
	ctx := context.Background()

	req := edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Params: []float64{0.25},
		Options: edmac.SimOptions{Duration: 60, Seed: 7},
	}
	folded, err := seeded.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("seeded: %v", err)
	}
	if folded.Sim.Seed != 7^base {
		t.Fatalf("effective seed = %d, want %d", folded.Sim.Seed, 7^base)
	}
	equiv := req
	equiv.Options.Seed = 7 ^ base
	want, err := plain.Simulate(ctx, equiv)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	mustEqualJSON(t, want.Sim, folded.Sim, "base-seed folding")
}

// TestClientPreCancelledContext: every method fails fast on a context
// that is already done.
func TestClientPreCancelledContext(t *testing.T) {
	cli := newClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := edmac.PaperRequirements()

	if _, err := cli.Optimize(ctx, edmac.OptimizeRequest{Protocol: edmac.XMAC, Requirements: req}); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize: %v", err)
	}
	if _, err := cli.Frontier(ctx, edmac.FrontierRequest{Protocol: edmac.XMAC, Requirements: req, Points: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("Frontier: %v", err)
	}
	if _, err := cli.Compare(ctx, edmac.CompareRequest{Requirements: req}); !errors.Is(err, context.Canceled) {
		t.Errorf("Compare: %v", err)
	}
	if _, err := cli.Sweep(ctx, edmac.SweepRequest{Protocol: edmac.XMAC, Axis: edmac.SweepDelay, Fixed: 0.06, Values: []float64{2}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep: %v", err)
	}
	if _, err := cli.Simulate(ctx, edmac.SimulateRequest{Protocol: edmac.XMAC, Params: []float64{0.25}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate: %v", err)
	}
	if _, err := cli.Batch(ctx, edmac.BatchRequest{Runs: []edmac.BatchRun{{Protocol: edmac.XMAC, Params: []float64{0.25}}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Batch: %v", err)
	}
	sp, _ := edmac.BuiltinScenario("ring-baseline")
	if _, err := cli.Suite(ctx, edmac.SuiteRequest{Scenarios: []edmac.ScenarioSpec{sp}, Protocols: []edmac.Protocol{edmac.XMAC}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Suite: %v", err)
	}
}

// TestBatchPreCancelledKeepsOutcomeShape pins the batch-specific
// contract: even an already-done context yields one outcome per run
// (each carrying the context's error) — consumers index outcomes by
// run, so the slice's shape must never depend on timing.
func TestBatchPreCancelledKeepsOutcomeShape(t *testing.T) {
	cli := newClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := edmac.DefaultScenario()
	runs := []edmac.BatchRun{
		{Protocol: edmac.XMAC, Params: []float64{0.25}, Options: edmac.SimOptions{Seed: 1}},
		{Protocol: edmac.XMAC, Params: []float64{0.25}, Options: edmac.SimOptions{Seed: 2}},
		{Protocol: edmac.XMAC, Params: []float64{0.25}, Options: edmac.SimOptions{Seed: 3}},
	}
	rep, err := cli.Batch(ctx, edmac.BatchRequest{Scenario: &s, Runs: runs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Batch error = %v, want context.Canceled", err)
	}
	if len(rep.Outcomes) != len(runs) {
		t.Fatalf("Batch returned %d outcomes for %d runs", len(rep.Outcomes), len(runs))
	}
	for i, out := range rep.Outcomes {
		if !errors.Is(out.Err, context.Canceled) {
			t.Errorf("outcome %d: Err = %v, want context.Canceled", i, out.Err)
		}
	}
}

func TestClientSweepAxisValidation(t *testing.T) {
	cli := newClient(t)
	_, err := cli.Sweep(context.Background(), edmac.SweepRequest{
		Protocol: edmac.XMAC, Axis: "sideways", Fixed: 1, Values: []float64{1},
	})
	if err == nil {
		t.Fatal("bogus axis accepted")
	}
}

func TestClientSimulateDeploymentConflict(t *testing.T) {
	cli := newClient(t)
	s := edmac.DefaultScenario()
	sp, _ := edmac.BuiltinScenario("ring-baseline")
	_, err := cli.Simulate(context.Background(), edmac.SimulateRequest{
		Protocol: edmac.XMAC, Scenario: &s, Spec: &sp, Params: []float64{0.25},
	})
	if err == nil {
		t.Fatal("conflicting deployment sources accepted")
	}
}

// TestSuiteStreamMatchesSuite: both streaming front ends deliver
// exactly the cells of the monolithic report, serialized to the
// callback, and SuiteObserved also returns that report byte for byte.
func TestSuiteStreamMatchesSuite(t *testing.T) {
	cli := newClient(t)
	sp, _ := edmac.BuiltinScenario("ring-baseline")
	req := edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{sp},
		Protocols: []edmac.Protocol{edmac.XMAC, edmac.LMAC, edmac.SCPMAC},
		Options:   edmac.SuiteOptions{Duration: 40, Seed: 1, Workers: 3},
	}
	ctx := context.Background()
	report, err := cli.Suite(ctx, req)
	if err != nil {
		t.Fatalf("Suite: %v", err)
	}

	for _, tc := range []struct {
		name string
		// stream plays req, delivering cells to fn; it returns the
		// monolithic report, or nil when the front end has none.
		stream func(fn func(edmac.SuiteCell) error) (*edmac.SuiteReport, error)
	}{
		{"SuiteStream", func(fn func(edmac.SuiteCell) error) (*edmac.SuiteReport, error) {
			return nil, cli.SuiteStream(ctx, req, fn)
		}},
		{"SuiteObserved", func(fn func(edmac.SuiteCell) error) (*edmac.SuiteReport, error) {
			return cli.SuiteObserved(ctx, req, fn)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			inFlight := 0
			got := map[string][]byte{}
			observed, err := tc.stream(func(cell edmac.SuiteCell) error {
				mu.Lock()
				inFlight++
				if inFlight != 1 {
					t.Error("callback invoked concurrently")
				}
				got[cell.Scenario+"/"+string(cell.Protocol)] = asJSON(t, cell)
				inFlight--
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(got) != len(report.Cells) {
				t.Fatalf("streamed %d cells, report has %d", len(got), len(report.Cells))
			}
			for _, cell := range report.Cells {
				key := cell.Scenario + "/" + string(cell.Protocol)
				want := asJSON(t, cell)
				if string(got[key]) != string(want) {
					t.Errorf("%s: streamed cell differs from report cell", key)
				}
			}
			if observed != nil {
				mustEqualJSON(t, report, observed, "SuiteObserved's report against Suite's")
			}
		})
	}
}

// TestSuiteStreamConsumerAbort: a consumer error stops the stream and
// surfaces as the return value.
func TestSuiteStreamConsumerAbort(t *testing.T) {
	cli := newClient(t)
	sp, _ := edmac.BuiltinScenario("ring-baseline")
	req := edmac.SuiteRequest{
		Scenarios: []edmac.ScenarioSpec{sp},
		Protocols: edmac.Protocols(),
		Options:   edmac.SuiteOptions{Duration: 40, Seed: 1, Workers: 1},
	}
	sentinel := errors.New("enough")
	calls := 0
	err := cli.SuiteStream(context.Background(), req, func(edmac.SuiteCell) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the consumer's sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times after aborting", calls)
	}
}

// TestClientWorkersOption pins that a workers override still produces
// bit-identical results (the whole parallel layer's contract).
func TestClientWorkersOption(t *testing.T) {
	serial, err := edmac.NewClient(edmac.WithWorkers(1))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	wide := newClient(t)
	ctx := context.Background()
	req := edmac.SweepRequest{
		Protocol: edmac.XMAC, Axis: edmac.SweepDelay, Fixed: 0.06, Values: []float64{1, 2, 3, 4},
	}
	a, err := serial.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	b, err := wide.Sweep(ctx, req)
	if err != nil {
		t.Fatalf("wide: %v", err)
	}
	mustEqualJSON(t, a.Points, b.Points, "worker-count independence")
}
