package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// TestRunFaultyNoFaultsMatchesRun asserts the degenerate contract: with
// an empty failure schedule and no battery, the fault runner reproduces
// RunContext bit for bit for every simulated protocol — same interleaving,
// same arrival-delta arithmetic, same event sequence.
func TestRunFaultyNoFaultsMatchesRun(t *testing.T) {
	for _, proto := range []struct {
		name   string
		params opt.Vector
	}{
		{"xmac", opt.Vector{0.3}},
		{"bmac", opt.Vector{0.3}},
		{"dmac", opt.Vector{1.2, 0.004}},
		{"lmac", opt.Vector{7, 0.09}},
	} {
		cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 120)
		cfg.Protocol = proto.name
		cfg.Params = proto.params
		faulty, err := RunFaultyContext(context.Background(), cfg, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", proto.name, err)
		}
		fixed, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto.name, err)
		}
		if !reflect.DeepEqual(faulty, fixed) {
			t.Errorf("%s: no-fault RunFaultyContext diverged from RunContext:\nfaulty: gen=%d del=%d events=%d\nfixed:  gen=%d del=%d events=%d",
				proto.name, faulty.Metrics.Generated(), faulty.Metrics.Delivered(), faulty.Events,
				fixed.Metrics.Generated(), fixed.Metrics.Delivered(), fixed.Events)
		}
	}
}

// TestFaultPointsChurnDeterministic pins the churn materialization:
// deterministic in the seed, decorrelated across seeds, sorted by time.
func TestFaultPointsChurnDeterministic(t *testing.T) {
	net := phasedSimNetwork(t)
	f := &FailureConfig{MTBF: 120, MTTR: 40}
	a := faultPoints(f, net, 7, 1000)
	b := faultPoints(f, net, 7, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different churn schedules")
	}
	if len(a) == 0 {
		t.Fatal("no churn events over 1000 s with MTBF 120")
	}
	for i := 1; i < len(a); i++ {
		if a[i].at < a[i-1].at {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
	c := faultPoints(f, net, 8, 1000)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical churn schedules")
	}
	for _, pt := range a {
		if pt.node == 0 {
			t.Fatal("churn scheduled a sink crash")
		}
		if pt.at >= 1000 {
			t.Fatalf("point at %v beyond the horizon", pt.at)
		}
	}
}

// TestRunFaultyPermanentCrash kills the line's first relay mid-run: the
// network partitions for the rest of the run, the dead-node and
// partition clocks advance together, and delivery suffers versus the
// failure-free twin.
func TestRunFaultyPermanentCrash(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 400)
	cfg.Params = opt.Vector{0.3}
	base, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: 200}}}
	res, err := RunContext(context.Background(), cfg) // delegates to the fault runner
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 1 || res.Recoveries != 0 || res.DeadAtEnd != 1 {
		t.Fatalf("deaths=%d recoveries=%d deadAtEnd=%d, want 1/0/1",
			res.Deaths, res.Recoveries, res.DeadAtEnd)
	}
	if got := res.DeadNodeSeconds; got < 199 || got > 201 {
		t.Errorf("DeadNodeSeconds = %v, want ~200", got)
	}
	// Node 1 relays everything on a line: its death cuts 2 and 3 off.
	if got := res.PartitionSeconds; got < 199 || got > 201 {
		t.Errorf("PartitionSeconds = %v, want ~200", got)
	}
	if f := res.PartitionFraction(); f < 0.49 || f > 0.51 {
		t.Errorf("PartitionFraction = %v, want ~0.5", f)
	}
	if res.Metrics.Delivered() >= base.Metrics.Delivered() {
		t.Errorf("crashed run delivered %d, failure-free %d",
			res.Metrics.Delivered(), base.Metrics.Delivered())
	}
	// The dead relay consumed nothing after the crash: at most half the
	// failure-free consumption plus the pre-crash variance.
	if res.Energy[1] > 0.75*base.Energy[1] {
		t.Errorf("dead relay consumed %v J of the failure-free %v J", res.Energy[1], base.Energy[1])
	}
}

// TestRunFaultyRecovery crashes a relay for a bounded outage: the node
// comes back, forwards again, and the clocks cover only the outage.
func TestRunFaultyRecovery(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 400)
	cfg.Params = opt.Vector{0.3}
	cfg.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: 100, Duration: 100}}}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 1 || res.Recoveries != 1 || res.DeadAtEnd != 0 {
		t.Fatalf("deaths=%d recoveries=%d deadAtEnd=%d, want 1/1/0",
			res.Deaths, res.Recoveries, res.DeadAtEnd)
	}
	if got := res.DeadNodeSeconds; got < 99 || got > 101 {
		t.Errorf("DeadNodeSeconds = %v, want ~100", got)
	}
	if got := res.PartitionSeconds; got < 99 || got > 101 {
		t.Errorf("PartitionSeconds = %v, want ~100", got)
	}
	// Packets sampled at the outer nodes after the recovery must flow
	// again: delivery cannot be stuck at the pre-outage level.
	if res.Metrics.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.5 {
		t.Errorf("delivery ratio %.3f after a 100 s outage on a 400 s run", ratio)
	}
}

// TestRunFaultyBatteryDeath gives nodes a budget far below the run's
// consumption: they die at their exact depletion instants (meters
// frozen at the capacity, never beyond) and stay dead.
func TestRunFaultyBatteryDeath(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 400)
	cfg.Params = opt.Vector{0.3}
	base, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Half of the busiest node's failure-free consumption: every node
	// must deplete mid-run.
	capacity := base.Energy[1] / 2
	cfg.Battery = &BatteryConfig{Capacity: capacity}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Network.N()
	if res.Deaths != n-1 || res.DeadAtEnd != n-1 || res.Recoveries != 0 {
		t.Fatalf("deaths=%d deadAtEnd=%d recoveries=%d, want all %d non-sink nodes dead",
			res.Deaths, res.DeadAtEnd, res.Recoveries, n-1)
	}
	for i := 1; i < n; i++ {
		if res.Energy[i] > capacity*(1+1e-9) {
			t.Errorf("node %d consumed %v J of a %v J battery", i, res.Energy[i], capacity)
		}
	}
	if res.DeadNodeSeconds <= 0 {
		t.Error("battery deaths advanced no dead-node time")
	}
	if res.Metrics.Delivered() >= base.Metrics.Delivered() {
		t.Errorf("battery-limited run delivered %d, unlimited %d",
			res.Metrics.Delivered(), base.Metrics.Delivered())
	}
}

// TestRunFaultyDeterministic runs churn + battery twice: bit-identical.
func TestRunFaultyDeterministic(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 300)
	cfg.Params = opt.Vector{0.3}
	cfg.Failures = &FailureConfig{MTBF: 150, MTTR: 50}
	cfg.Battery = &BatteryConfig{Capacity: 0.5}
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal fault-injected runs diverged")
	}
}

// TestRunFaultyRebargainHook drives the degradation-aware path: the
// hook is consulted exactly once per liveness epoch, its vector is
// deployed, and a failing hook degrades to the last-good vector
// instead of aborting.
func TestRunFaultyRebargainHook(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 400)
	cfg.Params = opt.Vector{0.3}
	cfg.Failures = &FailureConfig{Events: []FailureEvent{{Node: 3, At: 100, Duration: 100}}}

	var sawAlive []bool
	calls := 0
	reb := func(alive []bool, phase int, at float64) (opt.Vector, error) {
		calls++
		sawAlive = append([]bool(nil), alive...)
		return opt.Vector{0.6}, nil
	}
	res, err := RunFaultyContext(context.Background(), cfg, nil, reb)
	if err != nil {
		t.Fatal(err)
	}
	// One death epoch + one recovery epoch.
	if calls != 2 || res.Rebargains != 2 || res.DegradedRebargains != 0 {
		t.Fatalf("calls=%d rebargains=%d degraded=%d, want 2/2/0",
			calls, res.Rebargains, res.DegradedRebargains)
	}
	if len(sawAlive) != cfg.Network.N() {
		t.Fatalf("alive slice has %d entries, want %d", len(sawAlive), cfg.Network.N())
	}

	failing := func(alive []bool, phase int, at float64) (opt.Vector, error) {
		return nil, errors.New("infeasible")
	}
	res, err = RunFaultyContext(context.Background(), cfg, nil, failing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebargains != 2 || res.DegradedRebargains != 2 {
		t.Fatalf("rebargains=%d degraded=%d, want 2/2", res.Rebargains, res.DegradedRebargains)
	}
	if res.Metrics.Delivered() == 0 {
		t.Fatal("degraded run delivered nothing")
	}
}

// TestRunFaultyValidation exercises the fault-block rejection cases.
func TestRunFaultyValidation(t *testing.T) {
	base := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 100)
	base.Params = opt.Vector{0.3}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"sink crash", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 0, At: 10}}}
		}},
		{"node out of range", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: topology.NodeID(c.Network.N()), At: 10}}}
		}},
		{"negative crash time", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: -1}}}
		}},
		{"negative outage", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: 1, Duration: -2}}}
		}},
		{"churn without MTBF", func(c *Config) {
			c.Failures = &FailureConfig{MTTR: 10}
		}},
		{"negative MTTR", func(c *Config) {
			c.Failures = &FailureConfig{MTBF: 100, MTTR: -1}
		}},
		{"zero battery", func(c *Config) {
			c.Battery = &BatteryConfig{}
		}},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if _, err := RunContext(context.Background(), c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
