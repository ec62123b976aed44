package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// TestMaterializedEquivalence holds runs with an attached shared world
// to the exact results of self-deriving runs, across every runner and
// channel family the sharing touches: structural tables (neighbours,
// parents, link PRR/gain), LMAC slot plans and precomputed arrival
// schedules must be invisible to the simulation.
func TestMaterializedEquivalence(t *testing.T) {
	lossy := lossyLine(t, 4, 0.8)
	cases := []struct {
		name   string
		cfg    Config
		phases []PhaseConfig
	}{
		{"xmac periodic lossy capture", Config{
			Protocol: "xmac", Network: lossy, Radio: radio.CC2420(),
			Params: opt.Vector{0.2}, Traffic: traffic.Periodic{Rate: 0.05}, Payload: 32,
			Duration: 120, Seed: 11, Capture: true,
		}, nil},
		{"lmac traffic", Config{
			Protocol: "lmac", Network: phasedSimNetwork(t), Radio: radio.CC2420(),
			Params: opt.Vector{8, 0.05}, Traffic: traffic.Periodic{Rate: 0.05},
			Payload: 32, Duration: 120, Seed: 5,
		}, nil},
		{"xmac phased", Config{
			Protocol: "xmac", Network: phasedSimNetwork(t), Radio: radio.CC2420(),
			Params:  opt.Vector{0.3}, // ignored by RunPhasedContext, validated by Materialize
			Traffic: traffic.Periodic{Rate: 0.05}, Payload: 32,
			Duration: 120, Seed: 3,
		}, []PhaseConfig{
			{Params: opt.Vector{0.3}, Until: 60},
			{Params: opt.Vector{0.15}, Until: 120},
		}},
		{"xmac faulty battery", Config{
			Protocol: "xmac", Network: phasedSimNetwork(t), Radio: radio.CC2420(),
			Params: opt.Vector{0.2}, Traffic: traffic.Periodic{Rate: 0.05}, Payload: 32,
			Duration: 200, Seed: 7,
			Failures: &FailureConfig{MTBF: 80, MTTR: 30},
			Battery:  &BatteryConfig{Capacity: 0.5},
		}, nil},
	}
	run := func(cfg Config, phases []PhaseConfig) *Result {
		t.Helper()
		var (
			res *Result
			err error
		)
		if phases != nil {
			res, err = RunPhasedContext(context.Background(), cfg, phases)
		} else {
			res, err = RunContext(context.Background(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := run(tc.cfg, tc.phases)
			shared, err := Materialize(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Shared = shared
			if got := run(cfg, tc.phases); !reflect.DeepEqual(base, got) {
				t.Errorf("shared world changed the run:\nbase %+v\ngot  %+v", base, got)
			}
			// A mismatched world (different seed) must be ignored, not
			// misapplied: the structural tables still hold, the arrival
			// schedules fall back to per-run derivation.
			stale := tc.cfg
			stale.Seed++
			if cfg.Shared, err = Materialize(stale); err != nil {
				t.Fatal(err)
			}
			if got := run(cfg, tc.phases); !reflect.DeepEqual(base, got) {
				t.Errorf("stale shared world changed the run")
			}
		})
	}

	// Worlds materialized from a config other than the run's: the fit
	// rule must ignore the ones that cannot serve the run and answer the
	// lookups the others cannot (a re-bargained LMAC frame size).
	gains := gainLine(t)
	capture := Config{
		Protocol: "xmac", Network: gains, Radio: radio.CC2420(),
		Params: opt.Vector{0.2}, Traffic: traffic.Periodic{Rate: 0.5}, Payload: 32,
		Duration: 120, Seed: 13, Capture: true,
	}
	noCapture := capture
	noCapture.Capture = false
	twin := lossyLine(t, 4, 0.8)
	onTwin := Config{
		Protocol: "bmac", Network: lossyLine(t, 4, 0.8), Radio: radio.CC2420(),
		Params: opt.Vector{0.2}, Traffic: traffic.Periodic{Rate: 0.05}, Payload: 32,
		Duration: 120, Seed: 17,
	}
	twinWorld := onTwin
	twinWorld.Network = twin
	lmacPhased := Config{
		Protocol: "lmac", Network: phasedSimNetwork(t), Radio: radio.CC2420(),
		Params: opt.Vector{8, 0.05}, Traffic: traffic.Periodic{Rate: 0.05},
		Payload: 32, Duration: 120, Seed: 19,
	}
	fits := []struct {
		name   string
		cfg    Config
		phases []PhaseConfig
		world  Config // the config the attached world is built from
	}{
		{"capture, world without capture", capture, nil, noCapture},
		{"capture, matching world", capture, nil, capture},
		{"identical network, other object", onTwin, nil, twinWorld},
		{"lmac phased, frame size changes", lmacPhased, []PhaseConfig{
			{Params: opt.Vector{8, 0.05}, Until: 60},
			{Params: opt.Vector{12, 0.05}, Until: 120},
		}, lmacPhased},
	}
	for _, tc := range fits {
		t.Run(tc.name, func(t *testing.T) {
			base := run(tc.cfg, tc.phases)
			if tc.cfg.Capture && base.Captures == 0 {
				t.Fatal("capture run captured nothing: the case pins nothing")
			}
			world, err := Materialize(tc.world)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Shared = world
			if got := run(cfg, tc.phases); !reflect.DeepEqual(base, got) {
				t.Errorf("world changed the run:\nbase %+v\ngot  %+v", base, got)
			}
		})
	}
}

// gainLine is a five-node line (spacing 0.5, so every node hears two
// hops each way) whose links are all stamped at PRR 1 with unequal
// gains: the network is not lossy, yet capture has powers to compare.
func gainLine(t *testing.T) *topology.Network {
	t.Helper()
	net, err := topology.Line(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < net.N(); a++ {
		for _, b := range net.Neighbors(topology.NodeID(a)) {
			net.SetLink(topology.NodeID(a), b, 1, float64((a*7+int(b)*3)%11))
		}
	}
	if net.Lossy() {
		t.Fatal("PRR-1 stamping made the line lossy")
	}
	return net
}
