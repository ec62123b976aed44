package sim

import "github.com/edmac-project/edmac/internal/topology"

// xmacNode is the packet-level X-MAC implementation: low-power listening
// with strobed preambles and early ACK, mirroring the analytic model in
// internal/macmodel. The poll chain, the send kick and the timeouts are
// the low-power-listening core it shares with B-MAC (lpl). Every
// recurring callback is allocated once at construction (method values
// allocate per evaluation), so the steady state schedules without heap
// work.
type xmacNode struct {
	lpl

	strobeUntil Time
	peer        topology.NodeID // handshake counterpart
	gap         float64

	gapExpiredFn    func()
	sendStrobeAckFn func()
	sendAckFn       func()
}

func newXMACNode(n *node, tw, horizon float64) *xmacNode {
	x := &xmacNode{}
	// The poll must straddle one full strobe period so a strobe start
	// always lands inside it.
	strobe := n.x.Airtime(n.strobeBytes)
	ackAir := n.x.Airtime(n.ackBytes)
	x.gap = ackAir + 2*n.x.prof.Turnaround + n.x.prof.CCA
	x.init(x, n, tw, strobe+x.gap+2*n.x.prof.CCA, horizon)
	x.gapExpiredFn = x.gapExpired
	x.sendStrobeAckFn = func() {
		x.x.Send(x.newFrame(FrameStrobeAck, x.peer, x.ackBytes, nil))
	}
	x.sendAckFn = func() {
		x.x.Send(x.newFrame(FrameAck, x.peer, x.ackBytes, nil))
	}
	return x
}

// startSend implements lplProtocol: strobes addressed to the parent for
// a full wakeup interval, or until it answers early.
func (m *xmacNode) startSend() {
	m.peer = m.parent
	m.strobeUntil = m.eng.Now() + m.tw + 2*(m.x.Airtime(m.strobeBytes)+m.gap)
	m.sendStrobe()
}

func (m *xmacNode) sendStrobe() {
	m.phase = lplGap // the gap follows the strobe's OnTxDone
	m.x.Send(m.newFrame(FrameStrobe, m.peer, m.strobeBytes, nil))
}

// gapExpired fires when no early ACK arrived within the inter-strobe gap.
func (m *xmacNode) gapExpired() {
	if m.phase != lplGap {
		return
	}
	if m.eng.Now() < m.strobeUntil {
		m.sendStrobe()
		return
	}
	// Strobed a full wakeup interval: the receiver must be awake now.
	m.sendData()
}

func (m *xmacNode) sendData() {
	m.gapTimer.Cancel()
	m.phase = lplWaitAck
	m.x.Send(m.newFrame(FrameData, m.peer, m.dataBytes, m.head()))
}

// OnTxDone implements FrameHandler.
func (m *xmacNode) OnTxDone(f *Frame) {
	switch f.Kind {
	case FrameStrobe:
		m.gapTimer = m.eng.After(m.gap, m.gapExpiredFn)
	case FrameData:
		ackWait := m.turn + m.x.Airtime(m.ackBytes) + m.turn + m.x.prof.CCA
		m.ackTimer = m.eng.After(ackWait, m.ackExpiredFn)
	case FrameStrobeAck:
		// Receiver: now expect the data frame.
		m.phase = lplWaitData
		wait := m.x.Airtime(m.strobeBytes) + m.gap + m.x.Airtime(m.dataBytes) + 4*m.turn
		m.dataTimer = m.eng.After(wait, m.dataExpiredFn)
	case FrameAck:
		// Receiver handshake complete.
		m.finish()
		m.maybeSend()
	}
}

// OnFrame implements FrameHandler.
func (m *xmacNode) OnFrame(f *Frame) {
	switch m.phase {
	case lplPolling:
		if f.Kind == FrameStrobe && f.Dst == m.id {
			// Addressed strobe: become the receiver, send the early ACK.
			m.pollTimer.Cancel()
			m.peer = f.Src
			m.phase = lplWaitData // refined after the strobe-ACK's OnTxDone
			m.eng.After(m.turn, m.sendStrobeAckFn)
			return
		}
		// Foreign traffic: the address in the strobe lets us sleep at
		// once — X-MAC's cheap overhearing.
		m.pollTimer.Cancel()
		m.finish()
	case lplGap:
		if f.Kind == FrameStrobeAck && f.Dst == m.id {
			m.sendData()
		}
	case lplWaitData:
		if f.Kind == FrameData && f.Dst == m.id {
			m.dataTimer.Cancel()
			m.peer = f.Src
			m.eng.After(m.turn, m.sendAckFn)
			m.accept(f.Packet)
		}
	case lplWaitAck:
		if f.Kind == FrameAck && f.Dst == m.id {
			m.ackTimer.Cancel()
			m.pop()
			m.retries = 0
			m.finish()
			m.maybeSend()
		}
	}
}

var _ macLayer = (*xmacNode)(nil)
