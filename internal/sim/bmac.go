package sim

import "github.com/edmac-project/edmac/internal/topology"

// bmacNode is the packet-level B-MAC implementation: classic low-power
// listening with a full-length, address-free wakeup preamble spanning
// one check interval. Everyone in range of the preamble — not just the
// target — stays awake through the data frame, which is the overhearing
// cost X-MAC's strobes were invented to remove. The poll chain, the
// send kick and the timeouts are the low-power-listening core it shares
// with X-MAC (lpl). Recurring callbacks are allocated once at
// construction.
type bmacNode struct {
	lpl

	preambleBytes int
	ackDst        topology.NodeID // destination of the pending ACK reply

	sendAckFn func()
}

func newBMACNode(n *node, tw, horizon float64) *bmacNode {
	m := &bmacNode{}
	// The preamble must span a full check interval on the air.
	bytes := int(tw/n.x.prof.ByteTime()) - n.x.prof.PHYOverhead
	if bytes < 1 {
		bytes = 1
	}
	m.preambleBytes = bytes
	m.init(m, n, tw, 2*n.x.prof.CCA+2*interFrameSpacing, horizon)
	m.sendAckFn = func() {
		m.x.Send(m.newFrame(FrameAck, m.ackDst, m.ackBytes, nil))
	}
	return m
}

// startSend implements lplProtocol: the preamble and the data frame run
// back to back.
func (m *bmacNode) startSend() {
	m.phase = lplWaitAck // set early; the data follows the preamble's OnTxDone
	m.x.Send(m.newFrame(FramePreamble, Broadcast, m.preambleBytes, nil))
}

// OnTxDone implements FrameHandler.
func (m *bmacNode) OnTxDone(f *Frame) {
	switch f.Kind {
	case FramePreamble:
		m.x.Send(m.newFrame(FrameData, m.parent, m.dataBytes, m.head()))
	case FrameData:
		ackWait := m.turn + m.x.Airtime(m.ackBytes) + m.turn + 2*interFrameSpacing
		m.ackTimer = m.eng.After(ackWait, m.ackExpiredFn)
	case FrameAck:
		m.finish()
		m.maybeSend()
	}
}

// OnFrame implements FrameHandler.
func (m *bmacNode) OnFrame(f *Frame) {
	switch m.phase {
	case lplPolling:
		if f.Kind == FramePreamble {
			// Address-free: every hearer must stay for the data.
			m.pollTimer.Cancel()
			m.phase = lplWaitData
			wait := interFrameSpacing + m.x.Airtime(m.dataBytes) + 2*m.turn
			m.dataTimer = m.eng.After(wait, m.dataExpiredFn)
			return
		}
		// Any other frame mid-poll: not ours to handle.
		m.pollTimer.Cancel()
		m.finish()
	case lplWaitData:
		if f.Kind != FrameData {
			return
		}
		m.dataTimer.Cancel()
		if f.Dst == m.id {
			m.ackDst = f.Src
			m.eng.After(m.turn, m.sendAckFn)
			m.accept(f.Packet)
			return
		}
		// Overheard someone else's data — the cost of address-free
		// preambles, paid in full before sleeping again.
		m.finish()
		m.maybeSend()
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

var _ macLayer = (*bmacNode)(nil)
