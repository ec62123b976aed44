package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
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
			Params: opt.Vector{0.2}, SampleRate: 0.05, Payload: 32,
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
			Params: opt.Vector{0.2}, SampleRate: 0.05, Payload: 32,
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
}
