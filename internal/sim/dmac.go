package sim

import "github.com/edmac-project/edmac/internal/topology"

// dmacPhase is the protocol state of one DMAC node.
type dmacPhase int

const (
	dSleep   dmacPhase = iota // between slots
	dRxSlot                   // listening in the receive slot
	dContend                  // waiting out the contention backoff
	dWaitAck                  // data sent, waiting for the ACK
)

// dmacMaxRetries bounds per-packet attempts (one per frame).
const dmacMaxRetries = 8

// dmacNode is the packet-level DMAC implementation: a staggered wakeup
// ladder where a node at depth d opens a receive slot aligned with its
// children's transmit slot and forwards in the next slot, so data rides
// a single wave to the sink each frame. Network-wide slot alignment is
// assumed, as in the protocol (DMAC relies on time synchronization).
// Recurring callbacks are allocated once at construction.
type dmacNode struct {
	*node
	frame float64 // frame length T
	mu    float64 // slot length µ
	depth int     // network depth D
	ring  int     // this node's depth d

	phase    dmacPhase
	retries  int
	frameIdx int  // index of the next frame to arm
	base     Time // schedule anchor: the instant start() ran
	// skipFrames mutes the transmit slot for a few frames after a failed
	// attempt (binary exponential backoff in frame units): two hidden
	// senders whose data collided would otherwise retry in the very same
	// slot forever, since CCA cannot see across two hops.
	skipFrames int

	cw      float64 // contention window
	turn    float64
	ackWait float64

	ackTimer Timer

	ackDst topology.NodeID // destination of the pending ACK reply

	openRxSlotFn     func()
	closeRxSlotFn    func()
	openTxSlotFn     func()
	contentionDoneFn func()
	ackExpiredFn     func()
	nextFrameFn      func()
	sendAckFn        func()
}

func newDMACNode(n *node, frame, mu float64, depth int) *dmacNode {
	d := &dmacNode{
		node:  n,
		frame: frame,
		mu:    mu,
		depth: depth,
		ring:  n.net.Ring(n.id),
		turn:  n.x.prof.Turnaround,
	}
	d.cw = 8 * n.x.prof.CCA
	d.ackWait = d.turn + n.x.Airtime(n.ackBytes) + d.turn + n.x.prof.CCA
	d.openRxSlotFn = d.openRxSlot
	d.closeRxSlotFn = d.closeRxSlot
	d.openTxSlotFn = d.openTxSlot
	d.contentionDoneFn = d.contentionDone
	d.ackExpiredFn = d.ackExpired
	d.nextFrameFn = func() { d.scheduleFrame(d.frameIdx) }
	d.sendAckFn = func() {
		d.x.Send(d.newFrame(FrameAck, d.ackDst, d.ackBytes, nil))
	}
	return d
}

// start implements macLayer.
func (m *dmacNode) start() {
	m.x.Sleep()
	// Anchoring the frame ladder at the start instant (zero in a fixed
	// run, the epoch boundary in a phased one) keeps the network-wide
	// slot alignment DMAC assumes.
	m.base = m.eng.Now()
	m.scheduleFrame(0)
}

// scheduleFrame arms the slot events of frame k. All boundaries are
// computed from integer slot indices off one epoch value, so that
// coinciding boundaries (this node's rx-slot close and tx-slot open)
// are bit-identical floats and scheduling order decides: the close must
// run first or the node would skip its own transmit slot.
func (m *dmacNode) scheduleFrame(k int) {
	epoch := m.base + float64(k)*m.frame
	boundary := func(slot int) float64 { return epoch + float64(slot)*m.mu }
	// Depth-D nodes transmit at slot index 0; a node at ring d transmits
	// at index D−d, receiving from its children in the slot before.
	txSlot := m.depth - m.ring
	if m.ring < m.depth {
		m.eng.At(boundary(txSlot-1), m.openRxSlotFn)
		m.eng.At(boundary(txSlot), m.closeRxSlotFn)
	}
	if !m.isSink() {
		m.eng.At(boundary(txSlot), m.openTxSlotFn)
	}
	m.frameIdx = k + 1
	m.eng.At(epoch+m.frame, m.nextFrameFn)
}

// sampled implements macLayer: packets wait for the next transmit slot.
func (m *dmacNode) sampled(p *Packet) { m.push(p) }

// openRxSlot turns the receiver on for one slot.
func (m *dmacNode) openRxSlot() {
	if m.phase != dSleep {
		return
	}
	m.phase = dRxSlot
	m.x.Listen()
}

// closeRxSlot returns to sleep unless a handshake is still running.
func (m *dmacNode) closeRxSlot() {
	if m.phase == dRxSlot {
		m.phase = dSleep
		m.x.Sleep()
	}
}

// openTxSlot contends for the channel when traffic is pending.
func (m *dmacNode) openTxSlot() {
	if m.phase != dSleep || m.head() == nil {
		return
	}
	if m.skipFrames > 0 {
		m.skipFrames--
		return
	}
	m.phase = dContend
	m.x.Listen()
	backoff := m.rng.Float64() * m.cw
	m.eng.After(backoff, m.contentionDoneFn)
}

// contentionDone performs the CCA and transmits on a clear channel.
func (m *dmacNode) contentionDone() {
	if m.phase != dContend {
		return
	}
	if m.x.CarrierBusy() {
		// Lost the contention: try again next frame.
		m.phase = dSleep
		m.x.Sleep()
		return
	}
	m.x.Send(m.newFrame(FrameData, m.parent, m.dataBytes, m.head()))
}

// OnTxDone implements FrameHandler.
func (m *dmacNode) OnTxDone(f *Frame) {
	switch f.Kind {
	case FrameData:
		m.phase = dWaitAck
		m.ackTimer = m.eng.After(m.ackWait, m.ackExpiredFn)
	case FrameAck:
		// Receiver side: handshake done; the rx slot may still be open.
		if m.phase == dSleep {
			m.x.Sleep()
		}
	}
}

// ackExpired gives up on this frame's attempt and backs off a random
// number of frames that doubles with every consecutive failure.
func (m *dmacNode) ackExpired() {
	if m.phase != dWaitAck {
		return
	}
	m.retries++
	if m.retries > dmacMaxRetries {
		m.pop()
		m.metrics.recordDropped()
		m.retries = 0
	} else {
		window := 1 << uint(m.retries)
		if window > 16 {
			window = 16
		}
		m.skipFrames = m.rng.Intn(window)
	}
	m.phase = dSleep
	m.x.Sleep()
}

// OnFrame implements FrameHandler.
func (m *dmacNode) OnFrame(f *Frame) {
	switch m.phase {
	case dRxSlot:
		if f.Kind == FrameData && f.Dst == m.id {
			m.ackDst = f.Src
			m.eng.After(m.turn, m.sendAckFn)
			m.accept(f.Packet)
			return
		}
		// Overheard a neighbour's exchange: stay in the slot (the
		// schedule still owns the radio until closeRxSlot).
	case dWaitAck:
		if f.Kind == FrameAck && f.Dst == m.id {
			m.ackTimer.Cancel()
			m.pop()
			m.retries = 0
			m.phase = dSleep
			m.x.Sleep()
		}
	case dSleep, dContend:
		// Nothing to do: contention resolution reads the carrier, not
		// frames.
	}
}

var _ macLayer = (*dmacNode)(nil)
