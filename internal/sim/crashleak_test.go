package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// TestRunContextCancellationLatency pins the cooperative-cancellation
// bound documented on RunContext: once the context is done, the engine
// processes at most ctxCheckInterval (4096) further events before
// aborting. Aborting a churn-heavy run must stay cheap no matter how
// deep the event queue is.
func TestRunContextCancellationLatency(t *testing.T) {
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 100000
	const cancelAt = 137 // an arbitrary event mid-run
	for i := 0; i < total; i++ {
		i := i
		eng.At(float64(i), func() {
			if i == cancelAt {
				cancel()
			}
		})
	}
	if err := eng.RunContext(ctx, float64(total)); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	processed := int(eng.Processed())
	latency := processed - (cancelAt + 1)
	if latency < 0 {
		t.Fatalf("aborted before the cancelling event: processed %d", processed)
	}
	if latency > ctxCheckInterval {
		t.Fatalf("processed %d events after cancellation, bound is %d", latency, ctxCheckInterval)
	}
}

// crashInstants probes a run for interesting crash times: the engine
// is driven once without failures and the instants are derived from the
// observed span, densely enough that some land mid-handshake and some
// inside the inter-frame spacing after a Send commit.
func crashInstants(duration float64) []float64 {
	var out []float64
	// A dense comb: steps incommensurate with the protocol timescales
	// (wakeup intervals, slot lengths) plus sub-interFrameSpacing
	// offsets so some crashes land inside the 32 µs commit window.
	for t := 5.0; t < duration; t += 7.7 {
		out = append(out, t, t+interFrameSpacing/2, t+3*interFrameSpacing)
	}
	return out
}

// assertPoolsReclaimed checks the medium's pool-leak invariants: after
// a run every frame and transmission ever allocated is back in its
// pool and nothing is left in flight or committed.
func assertPoolsReclaimed(t *testing.T, med *Medium, label string) {
	t.Helper()
	if n := len(med.inflight); n != 0 {
		t.Errorf("%s: %d transmissions still in flight", label, n)
	}
	if n := len(med.committed); n != 0 {
		t.Errorf("%s: %d transmissions still committed", label, n)
	}
	if got, want := len(med.framePool), med.framesMade; got != want {
		t.Errorf("%s: %d of %d frames back in the pool", label, got, want)
	}
	if got, want := len(med.txPool), med.txMade; got != want {
		t.Errorf("%s: %d of %d transmissions back in the pool", label, got, want)
	}
}

// TestQuiesceUnderCrashReclaimsPools kills nodes at a dense comb of
// instants — mid-handshake, mid-preamble, inside the inter-frame
// spacing — across every simulated protocol and asserts the quiesce
// machinery reclaims every pooled frame and transmission: no leaks, no
// dangling callbacks touching freed state. Run under -race in CI.
func TestQuiesceUnderCrashReclaimsPools(t *testing.T) {
	protos := []struct {
		name   string
		params opt.Vector
	}{
		{"xmac", opt.Vector{0.3}},
		{"bmac", opt.Vector{0.3}},
		{"dmac", opt.Vector{1.2, 0.004}},
		{"lmac", opt.Vector{7, 0.09}},
	}
	for _, proto := range protos {
		proto := proto
		t.Run(proto.name, func(t *testing.T) {
			t.Parallel()
			const duration = 120.0
			// A hot workload so handshakes are dense and crashes land in
			// every protocol state.
			cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.5}, duration)
			cfg.Protocol = proto.name
			cfg.Params = proto.params
			var events []FailureEvent
			node := topology.NodeID(1)
			for _, at := range crashInstants(duration) {
				// Rotate the victim among the relays and let each come
				// back quickly so later crashes find live targets.
				events = append(events, FailureEvent{Node: node, At: at, Duration: 2.5})
				node++
				if int(node) >= cfg.Network.N() {
					node = 1
				}
			}
			cfg.Failures = &FailureConfig{Events: events}

			// Run the fault runner production builds, then quiesce the
			// final state exactly as an epoch would and assert nothing
			// leaked.
			r := newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, faultyRun, nil)
			res, err := r.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Deaths == 0 {
				t.Fatal("no crash fired")
			}
			r.eng.DropPending()
			r.med.quiesce()
			assertPoolsReclaimed(t, r.med, proto.name)
		})
	}
}

// TestQuiesceUnderBatteryDeathReclaimsPools is the battery variant: a
// budget tuned so nodes deplete mid-run (necessarily mid-activity,
// since transmitting is what drains them) must leave the pools intact.
func TestQuiesceUnderBatteryDeathReclaimsPools(t *testing.T) {
	cfg := phasedSimConfig(t, traffic.Periodic{Rate: 0.5}, 120)
	cfg.Params = opt.Vector{0.3}
	base, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Battery = &BatteryConfig{Capacity: base.Energy[1] / 3}

	r := newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, faultyRun, nil)
	res, err := r.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths == 0 {
		t.Fatal("no battery death fired")
	}
	r.eng.DropPending()
	r.med.quiesce()
	assertPoolsReclaimed(t, r.med, "battery")
}
