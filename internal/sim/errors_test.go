package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// TestRunnerErrorText pins the exact rejection text of the three entry
// points. The text reaches /v1/simulate error bodies and the err field
// of suite cells, so it is part of the wire contract: every phase,
// traffic and fault-block rejection, and an LMAC frame the network
// cannot schedule, which each entry point reports differently.
func TestRunnerErrorText(t *testing.T) {
	const (
		lmacDense = "sim: lmac schedule: topology: node 2 has no free slot in a 2-slot frame (2-hop neighbourhood too dense)"
		crash     = "sim: failure event 0: node 0 out of range (sink cannot crash)"
	)
	base := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 100)
	base.Params = opt.Vector{0.3}
	lmac := func(c *Config) {
		c.Protocol = "lmac"
		c.Params = opt.Vector{7, 0.09}
	}
	faulty := func(c *Config) {
		c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 3, At: 80, Duration: 5}}}
	}
	type runFn func(context.Context, Config, []PhaseConfig) (*Result, error)
	fixed := runFn(func(ctx context.Context, c Config, _ []PhaseConfig) (*Result, error) {
		return RunContext(ctx, c)
	})
	phased := runFn(func(ctx context.Context, c Config, ph []PhaseConfig) (*Result, error) {
		return RunPhasedContext(ctx, c, ph)
	})
	faultRun := runFn(func(ctx context.Context, c Config, ph []PhaseConfig) (*Result, error) {
		return RunFaultyContext(ctx, c, ph, nil)
	})
	two := func(a, b opt.Vector) []PhaseConfig {
		return []PhaseConfig{{Params: a, Until: 50}, {Params: b, Until: 100}}
	}
	// Each fault-block rejection, as Validate words it.
	faultBlocks := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"sink crash", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 0, At: 10}}}
		}, crash},
		{"node out of range", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: topology.NodeID(c.Network.N()), At: 10}}}
		}, "sim: failure event 0: node 5 out of range (sink cannot crash)"},
		{"negative crash time", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: -1}}}
		}, "sim: failure event 0: crash time -1 must be non-negative and finite"},
		{"negative outage", func(c *Config) {
			c.Failures = &FailureConfig{Events: []FailureEvent{{Node: 1, At: 1, Duration: -2}}}
		}, "sim: failure event 0: duration -2 must be non-negative and finite"},
		{"churn without MTBF", func(c *Config) {
			c.Failures = &FailureConfig{MTTR: 10}
		}, "sim: churn MTBF 0 must be positive and finite"},
		{"negative MTTR", func(c *Config) {
			c.Failures = &FailureConfig{MTBF: 100, MTTR: -1}
		}, "sim: churn MTTR -1 must be non-negative and finite"},
		{"zero battery", func(c *Config) {
			c.Battery = &BatteryConfig{}
		}, "sim: battery capacity 0 must be positive and finite"},
	}

	type tcase struct {
		name   string
		run    runFn
		mutate func(*Config)
		phases []PhaseConfig
		want   string // "" means the run is accepted
	}
	cases := []tcase{
		// RunContext: Validate's text verbatim, the raw slot-plan error.
		{"fixed bad arity", fixed, func(c *Config) { c.Params = opt.Vector{0.3, 1} }, nil,
			"sim: xmac expects 1 parameter (wakeup interval), got 2"},
		{"fixed bad param", fixed, func(c *Config) { c.Params = opt.Vector{-1} }, nil,
			"sim: parameter 0 = -1 must be positive and finite"},
		{"fixed bad traffic", fixed, func(c *Config) { c.Traffic = traffic.Periodic{Rate: -1} }, nil,
			"sim: traffic: periodic rate -1 must be positive"},
		{"fixed lmac unschedulable", fixed, func(c *Config) { lmac(c); c.Params[0] = 2 }, nil,
			lmacDense},
		{"fixed faulty lmac unschedulable", fixed, func(c *Config) { lmac(c); c.Params[0] = 2; faulty(c) }, nil,
			lmacDense},

		// RunPhasedContext.
		{"phased no phases", phased, nil, nil,
			"sim: phased run needs at least one phase"},
		{"phased faulty no phases", phased, faulty, nil,
			"sim: phased run needs at least one phase"},
		{"phased no traffic", phased, func(c *Config) { c.Traffic = nil },
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 100}},
			"sim: phased run needs a traffic model"},
		{"phased faulty no traffic", phased, func(c *Config) { c.Traffic = nil; faulty(c) },
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 100}}, ""},
		{"phased zero first phase", phased, nil,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 0}, {Params: opt.Vector{0.3}, Until: 100}},
			"sim: phase 0 ends at 0, not after 0"},
		{"phased non-increasing", phased, nil,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 50}, {Params: opt.Vector{0.2}, Until: 50}},
			"sim: phase 1 ends at 50, not after 50"},
		{"phased short of duration", phased, nil,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 60}},
			"sim: last phase ends at 60, want the run duration 100"},
		{"phased past duration", phased, nil,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 120}},
			"sim: last phase ends at 120, want the run duration 100"},
		{"phased bad arity", phased, nil,
			[]PhaseConfig{{Params: opt.Vector{0.3, 1}, Until: 100}},
			"sim: phase 0: sim: xmac expects 1 parameter (wakeup interval), got 2"},
		{"phased bad param", phased, nil, two(opt.Vector{0.3}, opt.Vector{-1}),
			"sim: phase 1: sim: parameter 0 = -1 must be positive and finite"},
		{"phased bad payload", phased, func(c *Config) { c.Payload = 0 },
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 100}},
			"sim: phase 0: sim: payload 0 must be positive"},
		{"phased lmac unschedulable phase 0", phased, lmac, two(opt.Vector{2, 0.09}, opt.Vector{7, 0.09}),
			"sim: phase 0: " + lmacDense},
		{"phased lmac unschedulable phase 1", phased, lmac, two(opt.Vector{7, 0.09}, opt.Vector{2, 0.09}),
			"sim: phase 1: " + lmacDense},

		// RunFaultyContext: nil phases validate cfg.Params as phase 0.
		{"faulty bad param", faultRun, func(c *Config) { faulty(c); c.Params = opt.Vector{-1} }, nil,
			"sim: phase 0: sim: parameter 0 = -1 must be positive and finite"},
		{"faulty non-increasing", faultRun, faulty,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 50}, {Params: opt.Vector{0.2}, Until: 40}},
			"sim: phase 1 ends at 40, not after 50"},
		{"faulty short of duration", faultRun, faulty,
			[]PhaseConfig{{Params: opt.Vector{0.3}, Until: 60}},
			"sim: last phase ends at 60, want the run duration 100"},
		{"faulty lmac unschedulable phase 0", faultRun, func(c *Config) { lmac(c); faulty(c) },
			two(opt.Vector{2, 0.09}, opt.Vector{7, 0.09}), lmacDense},
		// Past phase 0 the fault runner degrades instead (see
		// TestFaultyRunDegradesUndeployableVector).
		{"faulty lmac unschedulable phase 1", faultRun, func(c *Config) { lmac(c); faulty(c) },
			two(opt.Vector{7, 0.09}, opt.Vector{2, 0.09}), ""},
	}
	// A done context aborts every runner with the same wrapping. The
	// runs are long enough to reach the first context poll.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	abort := func(run runFn) runFn {
		return func(_ context.Context, c Config, ph []PhaseConfig) (*Result, error) { return run(cancelled, c, ph) }
	}
	long := func(c *Config) { c.Duration = 5000 }
	longFaulty := func(c *Config) { long(c); faulty(c) }
	whole := []PhaseConfig{{Params: opt.Vector{0.3}, Until: 5000}}
	const aborted = "sim: run aborted: context canceled"
	cases = append(cases,
		tcase{"fixed aborted", abort(fixed), long, nil, aborted},
		tcase{"fixed faulty aborted", abort(fixed), longFaulty, nil, aborted},
		tcase{"phased aborted", abort(phased), long, whole, aborted},
		tcase{"faulty aborted", abort(faultRun), longFaulty, whole, aborted})
	for _, fb := range faultBlocks {
		cases = append(cases,
			tcase{name: "fixed " + fb.name, run: fixed, mutate: fb.mutate, want: fb.want},
			tcase{name: "phased " + fb.name, run: phased, mutate: fb.mutate,
				phases: []PhaseConfig{{Params: opt.Vector{0.3}, Until: 100}}, want: "sim: phase 0: " + fb.want},
			tcase{name: "faulty " + fb.name, run: faultRun, mutate: fb.mutate, want: "sim: phase 0: " + fb.want})
	}
	for _, tc := range cases {
		c := base
		if tc.mutate != nil {
			tc.mutate(&c)
		}
		res, err := tc.run(context.Background(), c, tc.phases)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", tc.name, tc.want)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s:\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		case tc.want != "" && res != nil:
			t.Errorf("%s: rejected run returned a result", tc.name)
		}
	}
}

// TestFaultyRunDegradesUndeployableVector pins the fault runner's
// relaxed convention for a phase vector that validates but cannot be
// deployed (an LMAC frame the network cannot schedule): the run does
// not fail, the epoch falls back to the last vector that deployed and
// DegradedRebargains counts it.
func TestFaultyRunDegradesUndeployableVector(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.05}, 100)
	cfg.Protocol = "lmac"
	cfg.Params = opt.Vector{7, 0.09}
	cfg.Failures = &FailureConfig{Events: []FailureEvent{{Node: 3, At: 80, Duration: 5}}}
	run := func(second float64) *Result {
		t.Helper()
		res, err := RunFaultyContext(context.Background(), cfg, []PhaseConfig{
			{Params: opt.Vector{7, 0.09}, Until: 50},
			{Params: opt.Vector{second, 0.09}, Until: 100},
		}, nil)
		if err != nil {
			t.Fatalf("frame %v: %v", second, err)
		}
		return res
	}
	ok, degraded := run(8), run(2)
	if ok.DegradedRebargains != 0 || ok.Rebargains != 0 {
		t.Fatalf("deployable run: %d rebargains, %d degraded; want 0, 0", ok.Rebargains, ok.DegradedRebargains)
	}
	if got := degraded.DegradedRebargains; got != ok.DegradedRebargains+1 {
		t.Fatalf("undeployable phase 1: DegradedRebargains = %d, want %d", got, ok.DegradedRebargains+1)
	}
	if degraded.Rebargains != 0 || degraded.Deaths != 1 || degraded.Recoveries != 1 {
		t.Fatalf("undeployable phase 1: rebargains %d, deaths %d, recoveries %d; want 0, 1, 1",
			degraded.Rebargains, degraded.Deaths, degraded.Recoveries)
	}
}
