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

// TestSlotStepsLeaveTheQueue pins the LMAC slot fold and periodic
// airtime the same way. While a node's queue is empty its control
// sections from its first owned slot on are periodic airtime, so on an
// idle line the engine queues that one slot per node (a battery node
// also its death timer, armed before the fold held it, and one owned
// slot per run of at most maxStretch frames), and light traffic brings
// real sections back only around each packet. Events still counts each
// slot's start and end, each rollover, each control timeout and the
// three events each control section stands for. A battery node that
// outlasts every frame folds too, and no transition re-arms its death
// timer.
func TestSlotStepsLeaveTheQueue(t *testing.T) {
	const slots, frames = 8, 2500
	for _, rate := range []float64{0, 0.02} {
		for _, battery := range []bool{false, true} {
			cfg := lineConfig(t, "lmac", opt.Vector{slots, 0.01}, 4, rate, frames*slots*0.01)
			run := fixedRun
			if battery {
				cfg.Battery = &BatteryConfig{Capacity: 10}
				run = faultyRun
			}
			r := newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, run, nil)
			res, err := r.run(context.Background())
			if err != nil {
				t.Fatalf("rate=%v battery=%v: %v", rate, battery, err)
			}
			if res.Deaths != 0 {
				t.Fatalf("rate=%v battery=%v: %d deaths, want none", rate, battery, res.Deaths)
			}
			n := uint64(cfg.Network.N())
			// Each node's frame is 2·slots boundaries, a rollover and the
			// three events of its own control section.
			if want := n * (2*slots + 4) * (frames - 1); res.Events < want {
				t.Errorf("rate=%v battery=%v: Events = %d, want at least %d", rate, battery, res.Events, want)
			}
			limit := n
			if battery {
				limit += (n - 1) * (frames/maxStretch + 2)
			}
			if rate > 0 {
				// A packet's hops each queue a few owned slots and
				// transmissions.
				limit += 20 * uint64(res.Metrics.Generated()) * n
			}
			if r.eng.seq > limit {
				t.Errorf("rate=%v battery=%v: the engine queued %d events, want at most %d; slot steps and idle sections should fold",
					rate, battery, r.eng.seq, limit)
			}
		}
	}
}
