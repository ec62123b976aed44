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
