package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

// TestIdlePollsLeaveTheQueue pins the idle fold's mechanism, which
// TestSimDigest cannot see: on an idle network every X-MAC and B-MAC
// poll after the first dozes, so the engine queues a handful of events
// while Events still counts every poll and window close. A battery node
// adds one real poll per stretch of at most maxStretch cycles.
func TestIdlePollsLeaveTheQueue(t *testing.T) {
	for _, proto := range []string{"xmac", "bmac"} {
		for _, battery := range []bool{false, true} {
			cfg := lineConfig(t, proto, opt.Vector{0.05}, 3, 0, 100)
			run := fixedRun
			if battery {
				cfg.Battery = &BatteryConfig{Capacity: 10}
				run = faultyRun
			}
			r := newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, run, nil)
			res, err := r.run(context.Background())
			if err != nil {
				t.Fatalf("%s battery=%v: %v", proto, battery, err)
			}
			// Every node polls 2000 times in 100 s, two steps per poll.
			if want := uint64(cfg.Network.N()) * 2 * 1990; res.Events < want {
				t.Errorf("%s battery=%v: Events = %d, want at least %d", proto, battery, res.Events, want)
			}
			if r.eng.seq*100 > res.Events {
				t.Errorf("%s battery=%v: the engine queued %d events for %d processed; idle polls should fold",
					proto, battery, r.eng.seq, res.Events)
			}
		}
	}
}

// TestSlotStepsLeaveTheQueue pins the LMAC slot fold the same way: on a
// lightly loaded line every node queues its owned slot's start and its
// transmissions, while Events still counts each slot's start and end,
// each rollover and each control timeout. A battery node that outlasts
// every frame folds too, and no transition re-arms its death timer.
func TestSlotStepsLeaveTheQueue(t *testing.T) {
	const slots, frames = 8, 2500
	for _, battery := range []bool{false, true} {
		cfg := lineConfig(t, "lmac", opt.Vector{slots, 0.01}, 4, 0.02, frames*slots*0.01)
		run := fixedRun
		if battery {
			cfg.Battery = &BatteryConfig{Capacity: 10}
			run = faultyRun
		}
		r := newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, run, nil)
		res, err := r.run(context.Background())
		if err != nil {
			t.Fatalf("battery=%v: %v", battery, err)
		}
		if res.Deaths != 0 {
			t.Fatalf("battery=%v: %d deaths, want none", battery, res.Deaths)
		}
		// Each node's frame is 2·slots boundaries and a rollover.
		if want := uint64(cfg.Network.N()) * (2*slots + 1) * (frames - 1); res.Events < want {
			t.Errorf("battery=%v: Events = %d, want at least %d", battery, res.Events, want)
		}
		if r.eng.seq*5 >= res.Events {
			t.Errorf("battery=%v: the engine queued %d events for %d processed; slot steps should fold",
				battery, r.eng.seq, res.Events)
		}
	}
}
