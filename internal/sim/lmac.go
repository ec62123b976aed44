package sim

import (
	"math"

	"github.com/edmac-project/edmac/internal/radio"
)

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
//
// The slot fold takes the schedule out of the engine. Every step of a
// node's schedule but its own slot's start — an occupied slot's Listen,
// an empty slot's start, each control timeout and its extensions, each
// slot end, the frame rollover — is determined by the node's phase and
// radio state, and only the medium changes those between the node's
// own steps. So a folding node queues one event per frame, its owned
// slot's start (ownedSlot), and applies every other step late, at its
// exact instant, with setState's arithmetic, counting each as a
// processed event (fold). The medium folds the node up to now before
// it reads or changes the node's radio: startTx for each neighbour,
// endTx for a locked receiver, finishTx for the sender, an epoch
// boundary and the end of the run. Results keep their bits; only the
// engine's queue depth and wheel promotions change.
type lmacNode struct {
	*node
	slots    int     // N: slots per frame
	tslot    float64 // slot length
	owned    int     // this node's slot index
	occupied []bool  // occupied[s]: some node owns slot s
	window   float64 // control section's listening window
	ctrlAir  float64 // control airtime: one extension of the window
	foldable bool    // every control window closes strictly before its slot ends

	phase    lmacPhase
	frameIdx int  // index of the next frame to arm
	base     Time // schedule anchor: the instant start() ran

	slotStartCb   func(any)
	slotArgs      []any // pre-boxed slot indices for slotStartCb
	slotEndFn     func()
	ctrlTimeoutFn func()
	nextFrameFn   func()
	ownedSlotFn   func()

	// The fold. It steps through the last armed frame (frameIdx−1),
	// which starts at epoch and was armed at armed; step is its next
	// boundary (2s: slot s starts, 2s+1: slot s ends, 2·slots: the
	// rollover) and stepAt that step's instant. Step 2·owned is the
	// owned slot's real event, which the fold never passes.
	epoch    Time
	armed    Time
	step     int
	stepAt   Time
	timeouts []lmacTimeout  // pending control timeouts, in the order they were armed
	tbuf     [2]lmacTimeout // timeouts' backing array: rarely more are pending
}

// lmacTimeout is a pending control timeout of a folding node.
type lmacTimeout struct {
	at     Time
	frames int // frames armed when it was scheduled (frameIdx then)
}

// newLMACNode builds node n's LMAC layer: a frame of slots slots of
// tslot seconds, slot owned its own. horizon is the run's end, up to
// which a fold must keep the schedule's step order.
func newLMACNode(n *node, slots int, tslot float64, owned int, occupied []bool, horizon float64) *lmacNode {
	m := &lmacNode{node: n, slots: slots, tslot: tslot, owned: owned, occupied: occupied}
	m.timeouts = m.tbuf[:0]
	m.ctrlAir = n.x.Airtime(n.ctrlBytes)
	m.window = interFrameSpacing + m.ctrlAir + n.x.prof.CCA
	// Instants never exceed horizon+frameLen, so with this gap every
	// control window, rounded, closes strictly before its slot ends and
	// the timeout never ties with the slot's end.
	m.foldable = tslot-m.window > (horizon+m.frameLen())*0x1p-48
	m.slotStartCb = func(a any) { m.slotStart(a.(int)) }
	m.slotArgs = make([]any, slots)
	for s := 0; s < slots; s++ {
		m.slotArgs[s] = s
	}
	m.slotEndFn = m.slotEnd
	m.ctrlTimeoutFn = m.ctrlTimeout
	m.nextFrameFn = func() { m.scheduleFrame(m.frameIdx) }
	m.ownedSlotFn = m.ownedSlot
	return m
}

// start implements macLayer.
func (m *lmacNode) start() {
	m.x.Sleep()
	// Anchoring the frame schedule at the start instant (zero in a
	// fixed run, the epoch boundary in a phased one) keeps slot
	// boundaries aligned across all nodes of the regime.
	m.base = m.eng.Now()
	if !m.foldable || !m.coversFrame() {
		m.scheduleFrame(0)
		return
	}
	m.frameIdx = 1
	m.epoch, m.armed = m.base, m.base
	m.step = 0
	m.stepAt = m.base
	m.x.med.hold(m.id, m)
	m.eng.At(m.stepInstant(2*m.owned), m.ownedSlotFn)
}

func (m *lmacNode) frameLen() float64 { return float64(m.slots) * m.tslot }

// frameEpoch is the instant frame k starts, before any clamp.
func (m *lmacNode) frameEpoch(k int) Time { return m.base + float64(k)*m.frameLen() }

// scheduleFrame arms every slot boundary of frame k for this node.
// Boundaries come from integer slot indices, so within a frame slot
// s's end and slot s+1's start are bit-identical floats; the end event
// is scheduled first and therefore runs first. Across frames they need
// not be: frame k+1's first slot may start an ulp before frame k's last
// slot ends, and the engine then starts it at the rollover instant.
func (m *lmacNode) scheduleFrame(k int) {
	epoch := m.frameEpoch(k)
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
	m.eng.After(m.window, m.ctrlTimeoutFn)
}

// ctrlTimeout puts the radio down when no decodable control section
// arrived in time; a reception in flight is given time to finish.
func (m *lmacNode) ctrlTimeout() {
	if m.phase != lCtrl {
		return
	}
	if m.x.State() == radio.Rx {
		m.eng.After(m.ctrlAir, m.ctrlTimeoutFn)
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

// coversFrame reports whether the node may fold the coming frame: a
// mains-powered node always may; a battery node only while its
// residual provably outlasts a frame at the radio's largest draw
// (faultState.stretch), so no depletion instant falls inside the fold.
func (m *lmacNode) coversFrame() bool {
	p := m.x.prof
	draw := math.Max(math.Max(p.PowerTx, p.PowerRx), math.Max(p.PowerListen, p.PowerSleep))
	return m.x.med.fault.stretch(m.x, m.frameLen()*draw) != 0
}

// ownedSlot is the one event a folding node queues per frame: its own
// slot's start. It folds the steps before it, queues the next frame's
// owned slot — or, when a battery node's residual no longer covers a
// frame, ends the fold — and then runs the slot.
func (m *lmacNode) ownedSlot() {
	m.fold(m.eng.Now())
	m.step++
	m.stepAt = m.stepInstant(m.step)
	if m.coversFrame() {
		// The next frame is armed when this one rolls over.
		m.eng.At(clampedBoundary(m.frameEpoch(m.frameIdx), m.epoch+m.frameLen(), m.owned, m.tslot), m.ownedSlotFn)
	} else {
		m.unfold()
	}
	m.slotStart(m.owned)
}

// clampedBoundary is the instant of boundary s of a frame starting at
// epoch that was armed at armed: below armed, Engine.schedule's clamp
// raises it (in practice only slot 0's start, an ulp early).
func clampedBoundary(epoch, armed Time, s int, tslot float64) Time {
	if at := epoch + float64(s)*tslot; at > armed {
		return at
	}
	return armed
}

// stepInstant is the instant of boundary step i of the frame the fold
// steps through.
func (m *lmacNode) stepInstant(i int) Time {
	if i == 2*m.slots {
		return m.epoch + m.frameLen()
	}
	return clampedBoundary(m.epoch, m.armed, (i+1)>>1, m.tslot)
}

// unfold ends the fold at the owned slot's start: the rest of the
// frame's boundaries and every pending control timeout become real
// events at their instants, queued so that equal instants keep their
// order (a timeout armed before the frame runs before its boundaries,
// one armed after runs after them). The slot's Send, which follows at
// once, re-arms the battery's death timer from that transition, as it
// would have without the fold.
func (m *lmacNode) unfold() {
	m.x.med.release(m.id)
	m.queueTimeouts(true)
	for ; m.step <= 2*m.slots; m.step++ {
		at := m.stepInstant(m.step)
		switch {
		case m.step == 2*m.slots:
			m.eng.At(at, m.nextFrameFn)
		case m.step&1 == 0:
			m.eng.AtCall(at, m.slotStartCb, m.slotArgs[m.step>>1])
		default:
			m.eng.At(at, m.slotEndFn)
		}
	}
	m.queueTimeouts(false)
	m.timeouts = m.timeouts[:0]
}

// queueTimeouts schedules, oldest first, the pending control timeouts
// armed before the current frame, or those armed since.
func (m *lmacNode) queueTimeouts(before bool) {
	for _, to := range m.timeouts {
		if (to.frames < m.frameIdx) == before {
			m.eng.At(to.at, m.ctrlTimeoutFn)
		}
	}
}

// fold implements folder: it applies the steps due by t.
func (m *lmacNode) fold(t Time) { m.foldTo(t, false) }

// wake implements folder. A neighbour's Send reads nothing of this
// node: its steps wait for the transmission's startTx.
func (m *lmacNode) wake() {}

// settle implements folder.
func (m *lmacNode) settle(strict bool) {
	m.foldTo(m.eng.Now(), strict)
	m.x.med.release(m.id)
}

// foldTo applies the node's steps due by t, in the order their events
// would have run, each at its own instant with setState's metering
// arithmetic: a slot's start Listens (an occupied slot) and arms its
// control timeout, a timeout extends while a reception is in flight and
// otherwise Sleeps, a slot's end Sleeps, a rollover arms the next
// frame. Each counts as one processed event. A step at t itself is
// applied unless strict: then only the first frame's, which the
// regime's install queued before its fault points. The owned slot's
// start is a real event; the fold stops there until it has run. A
// folding node is alive, so its meters always run, and its death timer
// is disarmed, so no transition re-arms it.
//
//edvet:hotpath
func (m *lmacNode) foldTo(t Time, strict bool) {
	med := m.x.med
	id := m.id
	row := int(id) * 5
	var steps uint64
	for {
		// The earliest pending timeout, the oldest on a tie.
		next := -1
		for i := range m.timeouts {
			if next < 0 || m.timeouts[i].at < m.timeouts[next].at {
				next = i
			}
		}
		var at Time
		if next >= 0 && (m.timeouts[next].at < m.stepAt ||
			m.timeouts[next].at == m.stepAt && m.timeouts[next].frames < m.frameIdx) {
			at = m.timeouts[next].at
			if at > t || at == t && strict {
				break
			}
			m.timeouts = append(m.timeouts[:next], m.timeouts[next+1:]...)
			switch {
			case m.phase != lCtrl:
			case med.states[id] == radio.Rx:
				m.timeouts = append(m.timeouts, lmacTimeout{at: at + m.ctrlAir, frames: m.frameIdx})
			default:
				m.phase = lSleep
				m.sleepAt(med, row, at)
			}
		} else {
			at = m.stepAt
			if m.step == 2*m.owned || at > t || at == t && strict && m.frameIdx > 1 {
				break
			}
			switch s := m.step >> 1; {
			case m.step == 2*m.slots:
				m.epoch = m.frameEpoch(m.frameIdx)
				m.armed = at
				m.frameIdx++
				m.step = -1 // the next frame's first step, once incremented
			case m.step&1 == 0:
				if m.occupied[s] {
					m.phase = lCtrl
					// Listen; its midLock finds no wakeup preamble on an
					// LMAC channel.
					if st := med.states[id]; st != radio.Listen && st != radio.Rx && st != radio.Tx {
						med.acc[row+int(st)] += at - med.since[id]
						med.since[id] = at
						med.states[id] = radio.Listen
					}
					m.timeouts = append(m.timeouts, lmacTimeout{at: at + m.window, frames: m.frameIdx})
				}
			default:
				m.phase = lSleep
				m.sleepAt(med, row, at)
			}
			m.step++
			m.stepAt = m.stepInstant(m.step)
		}
		steps++
	}
	m.eng.processed += steps
}

// sleepAt is Transceiver.Sleep at instant at, for a folding node.
//
//edvet:hotpath
func (m *lmacNode) sleepAt(med *Medium, row int, at Time) {
	id := m.id
	st := med.states[id]
	if st == radio.Tx {
		return
	}
	med.lock[id] = nil
	med.lockBad[id] = false
	med.acc[row+int(st)] += at - med.since[id]
	med.since[id] = at
	med.states[id] = radio.Sleep
}

var _ macLayer = (*lmacNode)(nil)
