package sim

import "github.com/edmac-project/edmac/internal/radio"

// lmacPhase is the protocol state of one LMAC node within a slot.
type lmacPhase int

const (
	lSleep    lmacPhase = iota // between control sections
	lCtrl                      // listening for a slot's control section
	lOwnSlot                   // transmitting in the owned slot
	lWaitData                  // control announced data for this node
)

// lmacNode is the packet-level LMAC implementation: frame-based TDMA
// where each node owns one slot per frame (two-hop conflict-free
// schedule), always transmits its control section there, and listens to
// every other control section; data sections are slept through unless
// the control announces data for this node. There are no CCAs, no
// contention and no ACKs — the schedule guarantees exclusivity.
// Slot-boundary callbacks and their boxed slot arguments are allocated
// once at construction, so arming a frame does not allocate.
type lmacNode struct {
	*node
	slots    int     // N: slots per frame
	tslot    float64 // slot length
	owned    int     // this node's slot index
	occupied []bool  // occupied[s]: some node owns slot s

	phase    lmacPhase
	frameIdx int  // index of the next frame to arm
	base     Time // schedule anchor: the instant start() ran

	slotStartCb   func(any)
	slotArgs      []any // pre-boxed slot indices for slotStartCb
	slotEndFn     func()
	ctrlTimeoutFn func()
	nextFrameFn   func()
}

func newLMACNode(n *node, slots int, tslot float64, owned int, occupied []bool) *lmacNode {
	m := &lmacNode{node: n, slots: slots, tslot: tslot, owned: owned, occupied: occupied}
	m.slotStartCb = func(a any) { m.slotStart(a.(int)) }
	m.slotArgs = make([]any, slots)
	for s := 0; s < slots; s++ {
		m.slotArgs[s] = s
	}
	m.slotEndFn = m.slotEnd
	m.ctrlTimeoutFn = m.ctrlTimeout
	m.nextFrameFn = func() { m.scheduleFrame(m.frameIdx) }
	return m
}

// start implements macLayer.
func (m *lmacNode) start() {
	m.x.Sleep()
	// Anchoring the frame schedule at the start instant (zero in a
	// fixed run, the epoch boundary in a phased one) keeps slot
	// boundaries aligned across all nodes of the regime.
	m.base = m.eng.Now()
	m.scheduleFrame(0)
}

func (m *lmacNode) frameLen() float64 { return float64(m.slots) * m.tslot }

// scheduleFrame arms every slot boundary of frame k for this node.
// Boundaries come from integer slot indices so that slot s's end and
// slot s+1's start are bit-identical floats; the end event is scheduled
// first and therefore runs first.
func (m *lmacNode) scheduleFrame(k int) {
	epoch := m.base + float64(k)*m.frameLen()
	boundary := func(s int) float64 { return epoch + float64(s)*m.tslot }
	for s := 0; s < m.slots; s++ {
		m.eng.AtCall(boundary(s), m.slotStartCb, m.slotArgs[s])
		m.eng.At(boundary(s+1), m.slotEndFn)
	}
	m.frameIdx = k + 1
	m.eng.At(epoch+m.frameLen(), m.nextFrameFn)
}

// sampled implements macLayer: packets wait for the owned slot.
func (m *lmacNode) sampled(p *Packet) { m.push(p) }

// slotStart either transmits the control section (owner) or listens to
// it (everyone else).
func (m *lmacNode) slotStart(s int) {
	if s == m.owned {
		m.phase = lOwnSlot
		announce := Broadcast
		if m.head() != nil && !m.isSink() {
			announce = m.parent
		}
		f := m.newFrame(FrameCtrl, Broadcast, m.ctrlBytes, nil)
		f.Announce = announce
		m.x.Send(f)
		return
	}
	// Unowned slots may be empty (no node claimed them); skip listening
	// to silence.
	if !m.occupied[s] {
		return
	}
	m.phase = lCtrl
	m.x.Listen()
	// The owner may be out of range: give up after the control section's
	// duration instead of idling through the whole slot.
	window := interFrameSpacing + m.x.Airtime(m.ctrlBytes) + m.x.prof.CCA
	m.eng.After(window, m.ctrlTimeoutFn)
}

// ctrlTimeout puts the radio down when no decodable control section
// arrived in time; a reception in flight is given time to finish.
func (m *lmacNode) ctrlTimeout() {
	if m.phase != lCtrl {
		return
	}
	if m.x.State() == radio.Rx {
		m.eng.After(m.x.Airtime(m.ctrlBytes), m.ctrlTimeoutFn)
		return
	}
	m.phase = lSleep
	m.x.Sleep()
}

// slotEnd forces the radio down whatever happened during the slot.
func (m *lmacNode) slotEnd() {
	m.phase = lSleep
	m.x.Sleep()
}

// OnTxDone implements FrameHandler.
func (m *lmacNode) OnTxDone(f *Frame) {
	switch f.Kind {
	case FrameCtrl:
		if f.Announce != Broadcast && m.head() != nil {
			// The data section of the owned slot follows immediately.
			m.x.Send(m.newFrame(FrameData, m.parent, m.dataBytes, m.head()))
			return
		}
		m.x.Sleep()
	case FrameData:
		// Schedule-guaranteed delivery: no ACK in LMAC.
		m.pop()
		m.x.Sleep()
	}
}

// OnFrame implements FrameHandler.
func (m *lmacNode) OnFrame(f *Frame) {
	switch m.phase {
	case lCtrl:
		if f.Kind == FrameCtrl {
			if f.Announce == m.id {
				m.phase = lWaitData
				return // stay listening for the data section
			}
			m.x.Sleep() // not for us: sleep through the data section
		}
	case lWaitData:
		if f.Kind == FrameData && f.Dst == m.id {
			m.accept(f.Packet)
			m.phase = lSleep
			m.x.Sleep()
		}
	case lSleep, lOwnSlot:
		// Stray delivery outside a listening phase: ignore.
	}
}

var _ macLayer = (*lmacNode)(nil)
