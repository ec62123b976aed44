package sim

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

func phasedSimNetwork(t *testing.T) *topology.Network {
	t.Helper()
	net, err := (topology.LineGen{Nodes: 4, Spacing: 0.8}).Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func phasedSimConfig(t *testing.T, m traffic.Model, duration float64) Config {
	t.Helper()
	prof, err := radio.Profile("cc2420")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Protocol: "xmac",
		Network:  phasedSimNetwork(t),
		Radio:    prof,
		Traffic:  m,
		Payload:  32,
		Duration: duration,
		Seed:     3,
	}
}

// TestRunPhasedValidation exercises the rejection cases.
func TestRunPhasedValidation(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 100)
	cases := []struct {
		name   string
		mutate func(*Config)
		phases []PhaseConfig
	}{
		{"no phases", nil, nil},
		{"no traffic", func(c *Config) { c.Traffic = nil },
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 100}}},
		{"non-increasing", nil, []PhaseConfig{
			{Params: opt.Vector{0.3}, Until: 50}, {Params: opt.Vector{0.2}, Until: 50}}},
		{"short of duration", nil, []PhaseConfig{{Params: opt.Vector{0.3}, Until: 60}}},
		{"bad arity", nil, []PhaseConfig{{Params: opt.Vector{0.3, 1}, Until: 100}}},
		{"bad param", nil, []PhaseConfig{{Params: opt.Vector{-1}, Until: 100}}},
	}
	for _, tc := range cases {
		c := cfg
		if tc.mutate != nil {
			tc.mutate(&c)
		}
		if _, err := RunPhasedContext(context.Background(), c, tc.phases); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunPhasedDeterminism asserts equal inputs reproduce a multi-phase
// run exactly, and that the parameter swap actually changes the run.
func TestRunPhasedDeterminism(t *testing.T) {
	m := traffic.Phased{Phases: []traffic.Phase{
		{Model: traffic.Periodic{Rate: 0.05}, Duration: 60},
		{Model: traffic.Bursty{PeakRate: 0.5, OnMean: 5, OffMean: 10}, Duration: 60},
	}}
	cfg := phasedSimConfig(t, m, 120)
	phases := []PhaseConfig{
		{Params: opt.Vector{0.5}, Until: 60},
		{Params: opt.Vector{0.1}, Until: 120},
	}
	a, err := RunPhasedContext(context.Background(), cfg, phases)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPhasedContext(context.Background(), cfg, phases)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) || !reflect.DeepEqual(a.Energy, b.Energy) || a.Events != b.Events {
		t.Error("equal phased runs diverged")
	}
	flat := []PhaseConfig{
		{Params: opt.Vector{0.5}, Until: 120},
	}
	c, err := RunPhasedContext(context.Background(), cfg, flat)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Energy, c.Energy) {
		t.Error("parameter swap had no effect on the run")
	}
}

// TestRunPhasedOnePhaseMatchesRun asserts the degenerate contract: a
// one-phase RunPhasedContext is bit-identical to RunContext — same
// per-node start and generator interleaving, same arrival-delta
// arithmetic, so the very same event sequence.
func TestRunPhasedOnePhaseMatchesRun(t *testing.T) {
	m := traffic.Phased{Phases: []traffic.Phase{
		{Model: traffic.Periodic{Rate: 0.05}, Duration: 60},
		{Model: traffic.Bursty{PeakRate: 0.5, OnMean: 5, OffMean: 10}, Duration: 60},
	}}
	for _, proto := range []struct {
		name   string
		params opt.Vector
	}{
		{"xmac", opt.Vector{0.3}},
		{"bmac", opt.Vector{0.3}},
		{"dmac", opt.Vector{1.2, 0.004}},
		{"lmac", opt.Vector{7, 0.09}},
	} {
		cfg := phasedSimConfig(t, m, 120)
		cfg.Protocol = proto.name
		phased, err := RunPhasedContext(context.Background(), cfg, []PhaseConfig{{Params: proto.params, Until: 120}})
		if err != nil {
			t.Fatalf("%s: %v", proto.name, err)
		}
		cfg.Params = proto.params
		fixed, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto.name, err)
		}
		if !reflect.DeepEqual(phased, fixed) {
			t.Errorf("%s: one-phase RunPhasedContext diverged from RunContext:\nphased: gen=%d del=%d events=%d\nfixed:  gen=%d del=%d events=%d",
				proto.name, phased.Metrics.Generated(), phased.Metrics.Delivered(), phased.Events,
				fixed.Metrics.Generated(), fixed.Metrics.Delivered(), fixed.Events)
		}
	}
}

// TestRunPhasedPreservesQueues asserts the epoch swap loses no queued
// packet: a workload whose entire load arrives just before the boundary
// must still be delivered under the next regime's parameters.
func TestRunPhasedPreservesQueues(t *testing.T) {
	// All arrivals land in (0, 40): with a 0.6 s wakeup interval on a
	// 3-hop line, deliveries necessarily straddle the 41 s boundary.
	m := traffic.Phased{Phases: []traffic.Phase{
		{Model: traffic.Periodic{Rate: 0.1}, Duration: 40},
		{Model: traffic.Bursty{PeakRate: 1e-9, OnMean: 1e-6, OffMean: 1e6}, Duration: 160},
	}}
	cfg := phasedSimConfig(t, m, 200)
	res, err := RunPhasedContext(context.Background(), cfg, []PhaseConfig{
		{Params: opt.Vector{0.6}, Until: 41},
		{Params: opt.Vector{0.2}, Until: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics
	if met.Generated() == 0 {
		t.Fatal("no packets generated")
	}
	if met.Delivered()+met.Dropped() != met.Generated() {
		t.Errorf("%d generated, %d delivered + %d dropped: packets lost across the boundary",
			met.Generated(), met.Delivered(), met.Dropped())
	}
	if met.DeliveryRatio() < 0.9 {
		t.Errorf("delivery ratio %.3f after the swap", met.DeliveryRatio())
	}
}

// TestRunPhasedEnergyContinuity asserts the accounting carries across
// boundaries without a gap: per-node radio time can never exceed the
// run duration, total consumption lies between the all-sleep and
// all-listen extremes, and a two-phase run with identical parameters
// consumes about what the fixed run does.
func TestRunPhasedEnergyContinuity(t *testing.T) {
	m := traffic.Phased{Phases: []traffic.Phase{
		{Model: traffic.Periodic{Rate: 0.02}, Duration: 100},
		{Model: traffic.Periodic{Rate: 0.02}, Duration: 100},
	}}
	cfg := phasedSimConfig(t, m, 200)
	prof := cfg.Radio
	res, err := RunPhasedContext(context.Background(), cfg, []PhaseConfig{
		{Params: opt.Vector{0.4}, Until: 100},
		{Params: opt.Vector{0.4}, Until: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Energy {
		if res.ListenTime[i]+res.TxTime[i] > cfg.Duration+1e-9 {
			t.Errorf("node %d: active %v s of a %v s run",
				i, res.ListenTime[i]+res.TxTime[i], cfg.Duration)
		}
		min := cfg.Duration * prof.Power(radio.Sleep)
		max := cfg.Duration * prof.Power(radio.Tx)
		if res.Energy[i] < min-1e-9 || res.Energy[i] > max+1e-9 {
			t.Errorf("node %d: energy %v J outside [%v, %v]", i, res.Energy[i], min, max)
		}
	}
	// The same workload under a fixed run: the swap must not open an
	// accounting gap (small drift from the boundary quiesce is fine).
	fixed := cfg
	fixed.Params = opt.Vector{0.4}
	ref, err := RunContext(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	var total, refTotal float64
	for i := range res.Energy {
		total += res.Energy[i]
		refTotal += ref.Energy[i]
	}
	if r := total / refTotal; math.Abs(r-1) > 0.1 {
		t.Errorf("phased/fixed network energy ratio %.3f", r)
	}
}

// TestDropPending asserts the engine boundary primitive: everything
// pending disappears, the clock and the processed count stay put, and
// the engine schedules cleanly afterwards.
func TestDropPending(t *testing.T) {
	eng := NewEngine()
	fired := 0
	eng.After(1, func() { fired++ })
	eng.Run(2)
	eng.After(3, func() { t.Error("dropped event fired") })
	eng.After(4, func() { t.Error("dropped event fired") })
	eng.DropPending()
	if eng.QueueLen() != 0 {
		t.Fatalf("queue %d after drop", eng.QueueLen())
	}
	if eng.Now() != 2 || eng.Processed() != 1 {
		t.Fatalf("drop moved the clock (%v) or the counter (%d)", eng.Now(), eng.Processed())
	}
	eng.After(1, func() { fired++ })
	eng.Run(10)
	if fired != 2 {
		t.Fatalf("%d events fired, want 2", fired)
	}
}
