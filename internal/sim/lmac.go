package sim

import (
	"math"

	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
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
//
// Periodic airtime takes the idle control sections out too. A folding
// node whose owned slot starts with nothing queued, while every living
// neighbour folds, sends its control sections from that slot on as
// periodic airtime: no frame, transmission or event is made, and the
// node queues nothing (a battery node: one owned slot, at the last
// frame its residual covers). Its own fold applies the section — Send's
// Tx at the slot's start, txDone's Listen and OnTxDone's Sleep at its
// last bit — counting the three events (ownedSlot, startTx, finishTx)
// it stands for. Each neighbour's fold applies what startTx and endTx
// did there: at the first bit the lock and Rx, or the overlap; at the
// last the unlock, Listen, the link's loss draw and, as the section
// announces no one, Sleep. The periodic frames are a range
// [perFrom, perTo), and a neighbour reads it only at the section's first
// bit, after the slot's start has run. The range is cut back, from the
// next owned slot on, by an arrival, an accepted packet or a
// neighbour's unfold; it is opened, or extended past a battery node's
// last covered frame, only at a real owned slot. Either way every
// neighbour is first folded up to now, so none still owes a step the
// change could hide. Same-instant order: a node's own step runs before
// a section's step at the same instant, as startTx and finishTx folded
// it first; a section's steps were queued at its slot's start, after
// every event that could tie with them, so a fold an event triggers
// applies them only strictly before the event, and an epoch boundary
// (settle without strict) applies those due at it.
type lmacNode struct {
	*node
	slots    int       // N: slots per frame
	offsets  []float64 // offsets[s] = s·(slot length), s ≤ slots: boundary s of a frame
	owned    int       // this node's slot index
	occupied []bool    // occupied[s]: some node owns slot s
	window   float64   // control section's listening window
	ctrlAir  float64   // control airtime: one extension of the window
	foldable bool      // every control window closes strictly before its slot ends

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
	// owned slot's real event, which the fold passes only in a frame
	// whose control section is periodic airtime.
	epoch    Time
	armed    Time
	step     int
	stepAt   Time
	timeouts []lmacTimeout  // pending control timeouts, in the order they were armed
	tbuf     [2]lmacTimeout // timeouts' backing array: rarely more are pending

	// Periodic airtime. The control sections of frames [perFrom, perTo)
	// are periodic; stretch is the real owned slot that ends a battery
	// node's run of them, and rec the lock a neighbour holds on one.
	// peers is the regime's LMAC layer by node id, hear[s] the
	// neighbour that owns slot s, and sec the section the fold is in.
	perFrom int
	perTo   int
	stretch Timer
	rec     transmission
	peers   []*lmacNode
	hear    []lmacLink
	sec     lmacSection
}

// lmacTimeout is a pending control timeout of a folding node.
type lmacTimeout struct {
	at     Time
	frames int // frames armed when it was scheduled (frameIdx then)
}

// lmacLink names the neighbour that owns a slot: the link from it to
// this node is the k-th of its neighbour list. from is -1 when no
// neighbour owns the slot.
type lmacLink struct {
	from topology.NodeID
	k    int32
}

// lmacSection is a control section the fold steps through: node
// from's (this node's own, or a neighbour's on link k) in frame frame,
// whose next step falls at at: its first bit, or once started, its last
// at end. from is -1 outside a section. A neighbour's section is noted
// at its slot's start and applied only if it is periodic; a real one's
// events lock and release the node themselves.
type lmacSection struct {
	from    int32
	k       int32
	frame   int
	started bool
	at      Time
	end     Time
}

// newSection notes node from's control section of frame frame, whose
// slot starts at at.
func (m *lmacNode) newSection(from topology.NodeID, k int32, frame int, at Time) {
	sec := &m.sec
	sec.from, sec.k, sec.frame, sec.started = int32(from), k, frame, false
	sec.at = at + interFrameSpacing
	sec.end = sec.at + m.ctrlAir
}

// newLMACNode builds node n's LMAC layer over slot plan p, in a frame
// whose boundaries lie at offsets (see lmacOffsets). horizon is the
// run's end, up to which a fold must keep the schedule's step order.
// peers is the regime's LMAC layer, which the caller fills.
func newLMACNode(n *node, p *lmacPlan, offsets []float64, horizon float64, peers []*lmacNode) *lmacNode {
	id := int(n.id)
	m := &lmacNode{node: n, slots: p.slots, offsets: offsets, owned: p.owned[id], occupied: p.occupied,
		peers: peers, hear: p.hear[id*p.slots : (id+1)*p.slots : (id+1)*p.slots]}
	m.timeouts = m.tbuf[:0]
	m.rec = transmission{from: n.id, idx: -1}
	m.sec.from = -1
	m.ctrlAir = n.x.Airtime(n.ctrlBytes)
	m.window = interFrameSpacing + m.ctrlAir + n.x.prof.CCA
	// Instants never exceed horizon+frameLen, so with this gap every
	// instant of a slot's control section rounds into the slot's
	// interior: its first bit strictly after the slot starts, its last
	// strictly before the control window closes, and the window
	// strictly before the slot ends. No two of these steps tie, and the
	// timeout never ties with the slot's end.
	gap := (horizon + m.frameLen()) * 0x1p-48
	tslot := offsets[1]
	m.foldable = tslot-m.window > gap && m.window-(interFrameSpacing+m.ctrlAir) > gap && interFrameSpacing > gap
	m.slotStartCb = func(a any) { m.slotStart(a.(int)) }
	m.slotArgs = make([]any, m.slots)
	for s := 0; s < m.slots; s++ {
		m.slotArgs[s] = s
	}
	m.slotEndFn = m.slotEnd
	m.ctrlTimeoutFn = m.ctrlTimeout
	m.nextFrameFn = func() { m.scheduleFrame(m.frameIdx) }
	m.ownedSlotFn = m.ownedSlot
	return m
}

// lmacOffsets returns the offsets of a frame's boundaries from its
// start, s·tslot for s = 0..slots, from which every instant of the
// schedule is computed.
func lmacOffsets(slots int, tslot float64) []float64 {
	off := make([]float64, slots+1)
	for s := range off {
		off[s] = float64(s) * tslot
	}
	return off
}

// lmacHearing tabulates, for every node i and slot s of a frame of
// slots slots, the neighbour of i that owns s (hear[i·slots+s]). The
// schedule is two-hop conflict-free, so no two neighbours of a node own
// one slot.
func lmacHearing(nbrs [][]topology.NodeID, owned []int, slots int) []lmacLink {
	hear := make([]lmacLink, len(nbrs)*slots)
	for i := range hear {
		hear[i].from = -1
	}
	for j, list := range nbrs {
		for k, x := range list {
			hear[int(x)*slots+owned[j]] = lmacLink{from: topology.NodeID(j), k: int32(k)}
		}
	}
	return hear
}

// start implements macLayer.
func (m *lmacNode) start() {
	m.x.Sleep()
	// Anchoring the frame schedule at the start instant (zero in a
	// fixed run, the epoch boundary in a phased one) keeps slot
	// boundaries aligned across all nodes of the regime.
	m.base = m.eng.Now()
	if !m.foldable || m.coverage() == 0 {
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

func (m *lmacNode) frameLen() float64 { return m.offsets[m.slots] }

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
	for s := 0; s < m.slots; s++ {
		m.eng.AtCall(epoch+m.offsets[s], m.slotStartCb, m.slotArgs[s])
		m.eng.At(epoch+m.offsets[s+1], m.slotEndFn)
	}
	m.frameIdx = k + 1
	m.eng.At(epoch+m.frameLen(), m.nextFrameFn)
}

// sampled implements macLayer: packets wait for the owned slot, whose
// control section then announces them.
func (m *lmacNode) sampled(p *Packet) {
	m.push(p)
	m.endPeriodic()
}

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
			if !m.isSink() {
				m.endPeriodic()
			}
		}
	case lSleep, lOwnSlot:
		// Stray delivery outside a listening phase: ignore.
	}
}

// coverage is faultState.stretch over frames at the radio's largest
// draw: how many frames from now a battery node's residual provably
// outlasts (0: not the coming one), or -1 for no limit. Over those
// frames no depletion instant can fall, so the node may fold them.
func (m *lmacNode) coverage() int {
	p := &m.x.prof
	draw := math.Max(math.Max(p.PowerTx, p.PowerRx), math.Max(p.PowerListen, p.PowerSleep))
	return m.x.med.fault.stretch(m.x, m.frameLen()*draw)
}

// ownedSlot is the real event at the owned slot's start of a folding
// node: each frame's while its control sections are real, and a
// battery node's at the end of its periodic run. It folds the steps
// before it and then either ends the fold (a battery node whose
// residual no longer covers the coming frame), sends the section as
// periodic airtime (nothing queued, every living neighbour folding), or
// queues the next frame's owned slot and runs this one.
func (m *lmacNode) ownedSlot() {
	now := m.eng.Now()
	m.fold(now)
	m.step++
	m.stepAt = m.stepInstant(m.step)
	switch k := m.coverage(); {
	case k == 0:
		m.unfold()
	case m.head() == nil && m.quiet():
		m.periodicFrom(now, k)
		return
	default:
		// The next frame is armed when this one rolls over.
		m.eng.At(m.ownedStart(m.frameIdx), m.ownedSlotFn)
	}
	m.slotStart(m.owned)
}

// quiet reports whether every living neighbour folds: only a fold
// applies a periodic section.
func (m *lmacNode) quiet() bool {
	med := m.x.med
	for _, nb := range med.nbrs[m.id] {
		if !med.held(nb) && !med.halted[nb] {
			return false
		}
	}
	return true
}

// periodicFrom makes the control sections of the current frame, whose
// owned slot starts now, and of the frames after it periodic airtime:
// up to the last frame a battery node's residual covers (k frames from
// now, see coverage), without end for a mains-powered node (k < 0).
// The slot's start is applied at once; the event that runs it was
// counted.
func (m *lmacNode) periodicFrom(now Time, k int) {
	med := m.x.med
	m.foldPeers(now)
	f := m.frameIdx - 1
	m.perFrom, m.perTo = f, math.MaxInt
	if k > 0 {
		m.perTo = f + k
		m.stretch = m.eng.At(m.ownedStart(f+k), m.ownedSlotFn)
	}
	w := m.meters()
	m.idleStart(med, &w, now, f)
	w.store(med, m.id)
}

// endPeriodic makes the node's control sections real from its next
// owned slot on: the slot's start becomes a real event again. A no-op
// when no periodic section lies ahead.
func (m *lmacNode) endPeriodic() {
	if m.perTo < m.frameIdx {
		return
	}
	now := m.eng.Now()
	m.fold(now)
	f, at := m.frameIdx-1, m.stepInstant(2*m.owned)
	if m.step > 2*m.owned {
		f++
		at = m.ownedStart(f)
	}
	if m.perTo <= f {
		return
	}
	m.foldPeers(now)
	m.perTo = f
	m.stretch.Cancel()
	m.eng.At(at, m.ownedSlotFn)
}

// periodic reports whether the node's control section of frame f is
// periodic airtime.
func (m *lmacNode) periodic(f int) bool { return m.perFrom <= f && f < m.perTo }

// foldPeers folds every folding neighbour up to t.
func (m *lmacNode) foldPeers(t Time) {
	med := m.x.med
	for _, nb := range med.nbrs[m.id] {
		if med.held(nb) {
			m.peers[nb].fold(t)
		}
	}
}

// ownedStart is the instant frame k ≥ 1's owned slot starts: frame k is
// armed when frame k−1 rolls over.
func (m *lmacNode) ownedStart(k int) Time {
	return m.boundary(m.frameEpoch(k), m.frameEpoch(k-1)+m.frameLen(), m.owned)
}

// boundary is the instant of boundary s of a frame starting at epoch
// that was armed at armed: below armed, Engine.schedule's clamp raises
// it (in practice only slot 0's start, an ulp early).
func (m *lmacNode) boundary(epoch, armed Time, s int) Time {
	if at := epoch + m.offsets[s]; at > armed {
		return at
	}
	return armed
}

// stepInstant is the instant of boundary step i of the frame the fold
// steps through.
func (m *lmacNode) stepInstant(i int) Time { return m.instant(m.epoch, m.armed, i) }

// instant is the instant of boundary step i of a frame that starts at
// epoch and was armed at armed.
func (m *lmacNode) instant(epoch, armed Time, i int) Time {
	if i == 2*m.slots {
		return epoch + m.frameLen()
	}
	return m.boundary(epoch, armed, (i+1)>>1)
}

// unfold ends the fold at the owned slot's start: the rest of the
// frame's boundaries and every pending control timeout become real
// events at their instants, queued so that equal instants keep their
// order (a timeout armed before the frame runs before its boundaries,
// one armed after runs after them). A neighbour sending periodic
// sections sends real ones from its next owned slot, since only a fold
// applies a periodic section. The slot's Send, which follows at once,
// re-arms the battery's death timer from that transition, as it would
// have without the fold.
func (m *lmacNode) unfold() {
	med := m.x.med
	med.release(m.id)
	for _, nb := range med.nbrs[m.id] {
		if med.held(nb) {
			m.peers[nb].endPeriodic()
		}
	}
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

// fold implements folder: it applies the steps due by t, and the
// control-section steps due before t.
func (m *lmacNode) fold(t Time) { m.foldTo(t, false, false) }

// wake implements folder. A neighbour's Send reads nothing of this
// node: its steps wait for the transmission's startTx.
func (m *lmacNode) wake() {}

// settle implements folder. At a fault point (strict) the sections'
// steps due exactly now were queued after it, as were the node's own
// past its first frame; at an epoch boundary or the end of the run
// everything due now ran.
func (m *lmacNode) settle(strict bool) {
	m.foldTo(m.eng.Now(), strict, !strict)
	m.x.med.release(m.id)
}

// foldTo applies the node's steps due by t, in the order their events
// would have run, each at its own instant with setState's metering
// arithmetic: a slot's start Listens (an occupied slot) and arms its
// control timeout, a timeout extends while a reception is in flight and
// otherwise Sleeps, a slot's end Sleeps, a rollover arms the next
// frame, and the steps of a periodic control section are applied as
// lmacNode describes. Each own step counts as one processed event, and
// so does each step of the node's own periodic section. A step at t
// itself is applied unless strict: then only the first frame's, which
// the regime's install queued before its fault points. A section's
// step at t is applied only with sections. A real owned slot's start
// is an event; the fold stops there until it has run. A folding node is
// alive, so its meters always run, and its death timer is disarmed, so
// no transition re-arms it. The loop keeps the meters and the schedule
// cursor in locals and stores them once.
//
//edvet:hotpath
func (m *lmacNode) foldTo(t Time, strict, sections bool) {
	med := m.x.med
	w := m.meters()
	last, own := 2*m.slots, 2*m.owned
	step, stepAt, frame := m.step, m.stepAt, m.frameIdx
	epoch, armed := m.epoch, m.armed
	tos := m.timeouts
	var steps uint64
	for {
		// The next own step: the earliest pending timeout (the oldest
		// on a tie) if it runs before the next boundary, else the
		// boundary.
		at, next := stepAt, -1
		if len(tos) > 0 {
			next = 0
			for i := 1; i < len(tos); i++ {
				if tos[i].at < tos[next].at {
					next = i
				}
			}
			if to := tos[next]; to.at < at || to.at == at && to.frames < frame {
				at = to.at
			} else {
				next = -1
			}
		}
		// A section's step before it runs first.
		if m.sec.from >= 0 && m.sec.at < at {
			sat := m.sec.at
			if sat > t || sat == t && !sections {
				break
			}
			if m.sectionStep(med, &w, sat) {
				steps++
			}
			continue
		}
		if next >= 0 {
			if at > t || at == t && strict {
				break
			}
			if len(tos) == 1 {
				tos = tos[:0]
			} else {
				tos = append(tos[:next], tos[next+1:]...)
			}
			switch {
			case m.phase != lCtrl:
			case w.st == radio.Rx:
				tos = append(tos, lmacTimeout{at: at + m.ctrlAir, frames: frame})
			default:
				m.phase = lSleep
				m.sleepAt(med, &w, at)
			}
			steps++
			continue
		}
		if step == own && !m.periodic(frame-1) || at > t || at == t && strict && frame > 1 {
			break
		}
		switch {
		case step == last:
			epoch = m.frameEpoch(frame)
			armed = at
			frame++
			step = -1 // the next frame's first step, once incremented
		case step == own:
			m.idleStart(med, &w, at, frame-1)
		case step&1 == 0:
			if s := step >> 1; m.occupied[s] {
				m.phase = lCtrl
				// Listen; its midLock finds no wakeup preamble on an
				// LMAC channel.
				if st := w.st; st != radio.Listen && st != radio.Rx && st != radio.Tx {
					w.set(at, radio.Listen)
				}
				tos = append(tos, lmacTimeout{at: at + m.window, frames: frame})
				if l := m.hear[s]; l.from >= 0 {
					m.newSection(l.from, l.k, frame-1, at)
				}
			}
		default:
			m.phase = lSleep
			m.sleepAt(med, &w, at)
		}
		step++
		stepAt = m.instant(epoch, armed, step)
		steps++
	}
	m.step, m.stepAt, m.frameIdx = step, stepAt, frame
	m.epoch, m.armed = epoch, armed
	m.timeouts = tos
	w.store(med, m.id)
	m.eng.processed += steps
}

// idleStart is the owned slot's start in frame frame, whose control
// section is periodic airtime, at instant at: Send's transition to Tx,
// with the section's first bit to follow.
//
//edvet:hotpath
func (m *lmacNode) idleStart(med *Medium, w *lmacMeters, at Time, frame int) {
	m.phase = lOwnSlot
	if med.lock[m.id] != nil {
		med.lock[m.id] = nil
		med.lockBad[m.id] = false
	}
	w.set(at, radio.Tx)
	m.newSection(m.id, 0, frame, at)
}

// sectionStep applies the next step of the section the fold is in, at
// its instant at, and reports whether it stands for an event: the
// sender's startTx at the first bit and its finishTx at the last. A
// neighbour's section that is not periodic is dropped at its first bit.
// At a receiver the steps are startTx's and endTx's: lock and Rx, or
// the overlap; then, if the lock held, unlock, Listen and the link's
// loss draw, and OnFrame's Sleep for a section announcing no one.
//
//edvet:hotpath
func (m *lmacNode) sectionStep(med *Medium, w *lmacMeters, at Time) bool {
	sec := &m.sec
	id := m.id
	own := sec.from == int32(id)
	p := m.peers[sec.from]
	if !sec.started {
		sec.started = true
		sec.at = sec.end
		switch {
		case own:
			return true
		case !p.periodic(sec.frame):
			sec.from = -1
		case med.receive(id, w.st, &p.rec, int(sec.k)):
			w.set(at, radio.Rx)
		}
		return false
	}
	sec.from = -1
	if own {
		w.set(at, radio.Listen)
		m.sleepAt(med, w, at)
		return true
	}
	if med.lock[id] != &p.rec {
		return false
	}
	ok := med.received(id, p.id, int(sec.k))
	w.set(at, radio.Listen)
	if ok && m.phase == lCtrl {
		m.sleepAt(med, w, at)
	}
	return false
}

// lmacMeters is a folding node's radio state and time-in-state meters,
// held in locals for the length of a fold.
type lmacMeters struct {
	acc   [5]float64
	since Time
	st    radio.State
}

// meters loads the node's radio state and meters.
func (m *lmacNode) meters() lmacMeters {
	med := m.x.med
	row := int(m.id) * 5
	w := lmacMeters{since: med.since[m.id], st: med.states[m.id]}
	copy(w.acc[:], med.acc[row:row+5])
	return w
}

// store writes the meters back.
func (w *lmacMeters) store(med *Medium, id topology.NodeID) {
	row := int(id) * 5
	copy(med.acc[row:row+5], w.acc[:])
	med.since[id] = w.since
	med.states[id] = w.st
}

// set is setState at instant at for a folding node.
//
//edvet:hotpath
func (w *lmacMeters) set(at Time, s radio.State) {
	w.acc[w.st] += at - w.since
	w.since = at
	w.st = s
}

// sleepAt is Transceiver.Sleep at instant at, for a folding node. A
// node holds no lock, and no corrupted one, while lock is nil, so the
// pair is cleared only when set.
//
//edvet:hotpath
func (m *lmacNode) sleepAt(med *Medium, w *lmacMeters, at Time) {
	if w.st == radio.Tx {
		return
	}
	if med.lock[m.id] != nil {
		med.lock[m.id] = nil
		med.lockBad[m.id] = false
	}
	w.set(at, radio.Sleep)
}

var _ macLayer = (*lmacNode)(nil)
