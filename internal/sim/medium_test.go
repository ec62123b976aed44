package sim

import (
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
)

// recorder is a FrameHandler that logs deliveries.
type recorder struct {
	frames []*Frame
	done   []*Frame
}

func (r *recorder) OnFrame(f *Frame)  { r.frames = append(r.frames, f) }
func (r *recorder) OnTxDone(f *Frame) { r.done = append(r.done, f) }

func lineMedium(t *testing.T, n int) (*Engine, *Medium, *topology.Network) {
	t.Helper()
	net, err := topology.Line(n, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	eng := NewEngine()
	return eng, newMedium(eng, net, radio.CC2420(), nil), net
}

func TestMediumDeliversToListeningNeighbor(t *testing.T) {
	eng, med, _ := lineMedium(t, 2)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Listen()
	med.Transceiver(0).Listen()
	f := &Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43}
	eng.At(0, func() { med.Transceiver(0).Send(f) })
	eng.Run(1)
	if len(rx.frames) != 1 || rx.frames[0] != f {
		t.Fatalf("receiver got %v frames", len(rx.frames))
	}
}

func TestMediumSleepingNodeMissesFrame(t *testing.T) {
	eng, med, _ := lineMedium(t, 2)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Sleep()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
	})
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Error("sleeping node received a frame")
	}
}

func TestMediumOutOfRangeNodeMissesFrame(t *testing.T) {
	eng, med, _ := lineMedium(t, 3)
	rx := &recorder{}
	// Node 2 is two hops from node 0 (spacing 0.8, range 1.0).
	med.Transceiver(2).SetHandler(rx)
	med.Transceiver(2).Listen()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 2, Bytes: 43})
	})
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Error("out-of-range node received a frame")
	}
}

func TestMediumCollisionCorruptsFrame(t *testing.T) {
	// Line 0-1-2: node 1 hears both ends; simultaneous sends collide.
	eng, med, _ := lineMedium(t, 3)
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
	if len(rx.frames) != 0 {
		t.Error("collided frame was delivered")
	}
	if med.Collisions() == 0 {
		t.Error("collision not counted")
	}
}

func TestMediumLateListenerMissesMidFrame(t *testing.T) {
	// A node waking mid-frame cannot decode it (it missed the preamble).
	eng, med, _ := lineMedium(t, 2)
	rx := &recorder{}
	med.Transceiver(1).SetHandler(rx)
	med.Transceiver(1).Sleep()
	eng.At(0, func() {
		med.Transceiver(0).Listen()
		med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
	})
	eng.At(0.0005, func() { med.Transceiver(1).Listen() })
	eng.Run(1)
	if len(rx.frames) != 0 {
		t.Error("mid-frame waker decoded the frame")
	}
	// But it does sense the carrier while the frame is in the air.
	eng2, med2, _ := lineMedium(t, 2)
	busyDuringFrame := false
	eng2.At(0, func() {
		med2.Transceiver(0).Listen()
		med2.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
	})
	eng2.At(0.0005, func() { busyDuringFrame = med2.Transceiver(1).CarrierBusy() })
	eng2.Run(1)
	if !busyDuringFrame {
		t.Error("carrier sense missed an in-flight frame")
	}
}

func TestTransceiverEnergyAccounting(t *testing.T) {
	eng, med, _ := lineMedium(t, 2)
	x := med.Transceiver(0)
	prof := radio.CC2420()
	eng.At(0, x.Listen)
	eng.At(2, func() { x.Sleep() })
	eng.Run(10)
	x.finish()
	// 2 s listening + 8 s sleeping.
	wantListen := 2 * prof.PowerListen
	wantSleep := 8 * prof.PowerSleep
	if got := x.Energy(); math.Abs(got-(wantListen+wantSleep)) > 1e-12 {
		t.Errorf("Energy = %v, want %v", got, wantListen+wantSleep)
	}
	if got := x.TimeIn(radio.Listen); math.Abs(got-2) > 1e-12 {
		t.Errorf("TimeIn(listen) = %v, want 2", got)
	}
	if got := x.TimeIn(radio.Sleep); math.Abs(got-8) > 1e-12 {
		t.Errorf("TimeIn(sleep) = %v, want 8", got)
	}
}

func TestTransceiverStateTimesSumToDuration(t *testing.T) {
	eng, med, _ := lineMedium(t, 3)
	// Random-ish activity.
	for i := 0; i < 3; i++ {
		x := med.Transceiver(topology.NodeID(i))
		eng.At(float64(i)*0.1, x.Listen)
		eng.At(0.5+float64(i)*0.2, func() { x.Sleep() })
	}
	eng.At(0.3, func() {
		med.Transceiver(0).Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
	})
	eng.Run(3)
	for i := 0; i < 3; i++ {
		x := med.Transceiver(topology.NodeID(i))
		x.finish()
		total := x.TimeIn(radio.Sleep) + x.TimeIn(radio.Listen) + x.TimeIn(radio.Rx) + x.TimeIn(radio.Tx)
		if math.Abs(total-3) > 1e-9 {
			t.Errorf("node %d: state times sum to %v, want 3", i, total)
		}
	}
}

func TestSleepDuringTxDeferred(t *testing.T) {
	eng, med, _ := lineMedium(t, 2)
	x := med.Transceiver(0)
	eng.At(0, func() {
		x.Listen()
		x.Send(&Frame{Kind: FrameData, Src: 0, Dst: 1, Bytes: 43})
		x.Sleep() // must not interrupt the transmission
	})
	eng.Run(1)
	x.finish()
	wantAir := radio.CC2420().FrameAirtime(43) + interFrameSpacing
	if got := x.TimeIn(radio.Tx); math.Abs(got-wantAir) > 1e-9 {
		t.Errorf("TimeIn(tx) = %v, want spacing+airtime %v", got, wantAir)
	}
}
