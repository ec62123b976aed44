package sim

import (
	"context"
	"fmt"
	"testing"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// lossyLine builds a line network whose every link carries the given
// PRR in both directions.
func lossyLine(t *testing.T, hops int, prr float64) *topology.Network {
	t.Helper()
	net, err := topology.Line(hops, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	if err := channel.Apply(channel.Bernoulli{PRR: prr}, net, 1); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return net
}

// TestMediumReceptionDraw pins the endTx delivery draw: a PRR-0-ish link
// loses every frame (counted as a channel loss, not a collision), a
// PRR-1 link never loses one.
func TestMediumReceptionDraw(t *testing.T) {
	run := func(prr float64) (*recorder, *Medium) {
		net := lossyLine(t, 2, prr)
		eng := NewEngine()
		med := newMedium(eng, newWorld(&Config{Network: net}), radio.CC2420())
		med.enableLoss(7)
		rx := &recorder{}
		med.Transceiver(1).SetHandler(rx)
		med.Transceiver(1).Listen()
		for i := 0; i < 20; i++ {
			at := float64(i) * 0.01
			eng.At(at, func() {
				med.Transceiver(0).Listen()
				med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
			})
		}
		eng.Run(1)
		return rx, med
	}
	// channel.Apply clamps nothing here: Bernoulli requires prr > 0, so
	// stamp the near-zero link directly.
	net, err := topology.Line(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	net.SetLink(0, 1, 0, 0)
	eng := NewEngine()
	med := newMedium(eng, newWorld(&Config{Network: net}), radio.CC2420())
	med.enableLoss(7)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Listen()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
	})
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Error("PRR-0 link delivered a frame")
	}
	if med.ChannelLosses() != 1 {
		t.Errorf("ChannelLosses = %d, want 1", med.ChannelLosses())
	}
	if med.Collisions() != 0 {
		t.Errorf("channel loss miscounted as collision (%d)", med.Collisions())
	}

	if rxOK, medOK := run(1); len(rxOK.frames) != 20 || medOK.ChannelLosses() != 0 {
		t.Errorf("PRR-1 link: %d/20 delivered, %d losses", len(rxOK.frames), medOK.ChannelLosses())
	}
	if rxHalf, medHalf := run(0.5); len(rxHalf.frames)+medHalf.ChannelLosses() != 20 ||
		medHalf.ChannelLosses() == 0 || len(rxHalf.frames) == 0 {
		t.Errorf("PRR-0.5 link: %d delivered + %d lost, want a 20-frame mix",
			len(rxHalf.frames), medHalf.ChannelLosses())
	}
}

// TestMediumCapture pins the capture collision model on a 0-1-2 line:
// node 1 hears both ends; with a dominant gain the locked frame
// survives the overlap, with a dominant late arrival the lock is
// stolen, and with comparable gains the frames corrupt as before.
func TestMediumCapture(t *testing.T) {
	cases := []struct {
		name           string
		gain0, gain2   float64 // gains of links 0->1 and 2->1
		wantSrc        topology.NodeID
		wantDelivered  int
		wantCollisions int
	}{
		{"locked-dominates", 10, 0, 0, 1, 0},
		{"late-steals", 0, 10, 2, 1, 0},
		{"comparable-corrupts", 0, 1, -1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := topology.Line(3, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			net.SetLink(0, 1, 1, tc.gain0)
			net.SetLink(2, 1, 1, tc.gain2)
			eng := NewEngine()
			med := newMedium(eng, newWorld(&Config{Network: net, Capture: true}), radio.CC2420())
			med.enableCapture(3)
			rx := &recorder{}
			med.Transceiver(1).SetHandler(rx)
			med.Transceiver(1).Listen()
			eng.At(0, func() {
				med.Transceiver(0).Listen()
				med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
			})
			eng.At(0.0001, func() {
				med.Transceiver(2).Listen()
				med.Transceiver(2).Send(&Frame{Kind: FrameData, Src: 2, Dst: 1, Bytes: 43})
			})
			eng.Run(1)
			if len(rx.frames) != tc.wantDelivered {
				t.Fatalf("delivered %d frames, want %d", len(rx.frames), tc.wantDelivered)
			}
			if tc.wantDelivered == 1 && rx.frames[0].Src != tc.wantSrc {
				t.Errorf("delivered frame from %d, want %d", rx.frames[0].Src, tc.wantSrc)
			}
			if med.Collisions() != tc.wantCollisions {
				t.Errorf("collisions = %d, want %d", med.Collisions(), tc.wantCollisions)
			}
			if tc.wantCollisions == 0 && med.Captures() == 0 {
				t.Error("capture not counted")
			}
		})
	}
}

// TestMediumCapturePileUp pins the pile-up rule: once a lock is
// corrupted, a late arrival must dominate the strongest frame of the
// whole pile-up to steal it — not just the frame locked first. Node 1
// hears senders 0, 2 and 3 (spacing 0.5): frame A (gain 0) locks, C
// (gain 2) corrupts, then B (gain 4) arrives. B dominates A but not C,
// so the reception must stay corrupted.
func TestMediumCapturePileUp(t *testing.T) {
	net, err := topology.Line(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	net.SetLink(0, 1, 1, 0)
	net.SetLink(2, 1, 1, 2)
	net.SetLink(3, 1, 1, 4)
	eng := NewEngine()
	med := newMedium(eng, newWorld(&Config{Network: net, Capture: true}), radio.CC2420())
	med.enableCapture(3)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Listen()
	send := func(at float64, src topology.NodeID) {
		eng.At(at, func() {
			med.Transceiver(src).Listen()
			med.Transceiver(src).Send(&Frame{Kind: FrameData, Src: src, Dst: 1, Bytes: 43})
		})
	}
	send(0, 0)
	send(0.0001, 2)
	send(0.0002, 3)
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Errorf("delivered a frame from %d out of a pile-up no frame dominated", rx.frames[0].Src)
	}
	if med.Collisions() == 0 {
		t.Error("pile-up recorded no collision")
	}
}

// TestSinkDeduplicatesDeliveries is the forced-ACK-loss regression for
// the delivery double count: data flows sink-ward on a perfect link
// while every ACK (sink → sender) is lost, so B-MAC retries a packet
// the sink already took once per attempt. The sink must count one
// delivery plus retries-many duplicates, keeping the ratio at 1.
func TestSinkDeduplicatesDeliveries(t *testing.T) {
	net, err := topology.Line(1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Asymmetric loss: data (1 → 0) always decodes, ACKs (0 → 1) never.
	net.SetLink(0, 1, 0, 0)
	cfg := Config{
		Protocol: "bmac",
		Network:  net,
		Radio:    radio.CC2420(),
		Params:   opt.Vector{0.1},
		Traffic:  traffic.Periodic{Rate: 0.05},
		Payload:  32,
		Duration: 60,
		Seed:     3,
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Duplicates() == 0 {
		t.Fatal("no duplicates recorded under forced ACK loss; the regression scenario lost its teeth")
	}
	if m.Delivered() > m.Generated() {
		t.Errorf("delivered %d > generated %d: dedup failed", m.Delivered(), m.Generated())
	}
	if ratio := m.DeliveryRatio(); ratio > 1 {
		t.Errorf("DeliveryRatio = %v, want <= 1 under ACK loss", ratio)
	}
	if len(m.samples) != m.Delivered() {
		t.Errorf("%d delay samples for %d deliveries: duplicates biased the delay statistics",
			len(m.samples), m.Delivered())
	}
}

// TestPushOverflowKeepsInFlightHead is the queue-eviction regression: a
// full queue must shed the incoming packet, never the head the MAC may
// be mid-handshake on.
func TestPushOverflowKeepsInFlightHead(t *testing.T) {
	metrics := &Metrics{}
	n := &node{metrics: metrics}
	arena := &packetArena{}
	first := arena.new()
	n.push(first)
	second := arena.new()
	n.push(second)
	for i := 2; i < queueCap; i++ {
		n.push(arena.new())
	}
	if n.queueLen() != queueCap {
		t.Fatalf("queue length %d, want full %d", n.queueLen(), queueCap)
	}
	// The MAC is now mid-handshake on `first`. Overflowing must not
	// replace it.
	n.push(arena.new())
	if n.head() != first {
		t.Fatalf("head packet swapped out during overflow: got %p, want %p", n.head(), first)
	}
	if n.queueLen() != queueCap {
		t.Errorf("queue length %d after overflow, want %d", n.queueLen(), queueCap)
	}
	if metrics.Dropped() != 1 {
		t.Errorf("dropped = %d, want the shed incoming packet counted once", metrics.Dropped())
	}
	// pop() now removes exactly the packet the handshake completed.
	n.pop()
	if n.head() != second {
		t.Errorf("after pop head %p, want the second packet %p", n.head(), second)
	}
}

// TestLossyRunDeterministic asserts byte-stable outcomes on a lossy
// channel: equal configs reproduce every counter, and the per-link
// streams decorrelate under a different seed.
func TestLossyRunDeterministic(t *testing.T) {
	run := func(seed int64) string {
		net := lossyLine(t, 3, 0.8)
		res, err := RunContext(context.Background(), Config{
			Protocol: "xmac",
			Network:  net,
			Radio:    radio.CC2420(),
			Params:   opt.Vector{0.2},
			Traffic:  traffic.Periodic{Rate: 0.05},
			Payload:  32,
			Duration: 120,
			Seed:     seed,
			Capture:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%d/%d/%v/%v",
			res.Metrics.Generated(), res.Metrics.Delivered(), res.Metrics.Duplicates(),
			res.Collisions, res.ChannelLosses, res.Captures,
			res.Metrics.MeanDelay(), res.Energy)
	}
	a, b := run(9), run(9)
	if a != b {
		t.Errorf("equal seeds diverged:\n%s\n%s", a, b)
	}
	if run(10) == a {
		t.Error("different seeds produced identical lossy runs")
	}
}
