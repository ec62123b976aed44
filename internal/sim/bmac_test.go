package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
)

func TestBMACDeliversOverMultipleHops(t *testing.T) {
	cfg := lineConfig(t, "bmac", opt.Vector{0.2}, 3, 0.01, 2000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics.Generated() < 40 {
		t.Fatalf("only %d packets generated", res.Metrics.Generated())
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.9 {
		t.Errorf("delivery ratio %v below 0.9 (dropped %d, collisions %d)",
			ratio, res.Metrics.Dropped(), res.Collisions)
	}
	// Each hop pays the full preamble: a 3-hop packet needs at least
	// 3×Tw end to end.
	farDelay := res.Metrics.MeanDelayFrom(func(id topology.NodeID) bool { return id == 3 })
	if perHop := farDelay / 3; perHop < 0.19 || perHop > 0.45 {
		t.Errorf("per-hop delay %v s implausible for a full 0.2 s preamble", perHop)
	}
}

func TestBMACMidPreambleCapture(t *testing.T) {
	// A receiver waking in the middle of a preamble must still catch it:
	// that is what distinguishes FramePreamble from ordinary frames.
	eng, med, _ := lineMedium(t, 2)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Sleep()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FramePreamble, Src: 0, Dst: Broadcast, Bytes: 1000})
	})
	// 1000 bytes ≈ 32 ms on the air; wake at 10 ms.
	eng.At(0.010, func() { med.Transceiver(1).Listen() })
	eng.Run(1)
	if len(rx.frames) != 1 || rx.frames[0].Kind != FramePreamble {
		t.Fatalf("mid-preamble waker received %d frames, want the preamble", len(rx.frames))
	}
}

func TestBMACMidPreambleCaptureBlockedByCollision(t *testing.T) {
	// Two overlapping preambles: a waking node must not lock onto either.
	eng, med, _ := lineMedium(t, 3)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Sleep()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FramePreamble, Src: 0, Dst: Broadcast, Bytes: 1000})
	})
	eng.At(0.001, func() {
		med.Transceiver(2).Listen()
		med.Transceiver(2).Send(&Frame{Kind: FramePreamble, Src: 2, Dst: Broadcast, Bytes: 1000})
	})
	eng.At(0.010, func() { med.Transceiver(1).Listen() })
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Error("node decoded a preamble through a collision")
	}
}

// TestBMACCostlierThanXMACSimulated confirms, at packet level, the
// per-packet penalty the analytic ablation predicts: under relay load a
// B-MAC sender pays a full-interval preamble per packet where X-MAC's
// strobe train terminates at the early ACK (half the interval on
// average). At near-idle traffic the ordering legitimately flips —
// B-MAC's bare-CCA poll is cheaper than X-MAC's strobe-period poll — so
// the comparison runs with enough traffic for transmissions to dominate.
func TestBMACCostlierThanXMACSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	energy := func(protocol string) float64 {
		cfg := lineConfig(t, protocol, opt.Vector{0.2}, 3, 0.1, 1000)
		res, err := RunContext(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		return res.Energy[1] // first-hop relay
	}
	bmacE := energy("bmac")
	xmacE := energy("xmac")
	if bmacE <= xmacE {
		t.Errorf("bmac relay energy %v should exceed xmac's %v under relay load", bmacE, xmacE)
	}
}

func TestBMACPreambleSpansWakeup(t *testing.T) {
	prof := radio.CC2420()
	n := &node{x: &Transceiver{prof: prof}}
	m := newBMACNode(n, 0.5, 300)
	air := prof.FrameAirtime(m.preambleBytes)
	if air < 0.5*0.99 || air > 0.5*1.01 {
		t.Errorf("preamble airtime %v, want ≈ 0.5 s", air)
	}
}
