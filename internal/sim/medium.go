package sim

import (
	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
)

// FrameHandler is the MAC-layer upcall interface of a transceiver.
//
// Frames passed to OnFrame and OnTxDone are owned by the medium and are
// recycled as soon as the upcall returns: implementations must copy any
// field (and take the Packet pointer) they need afterwards, and must not
// retain the *Frame itself — e.g. in a deferred closure.
type FrameHandler interface {
	// OnFrame delivers a successfully decoded frame (including frames
	// addressed to other nodes — overhearing is the MAC's business).
	OnFrame(f *Frame)
	// OnTxDone signals that the node's own transmission left the air.
	OnTxDone(f *Frame)
}

// transmission is one frame in flight. Transmissions are pooled by the
// medium and tracked in an intrusive slice: idx is the element's
// position in Medium.inflight, maintained by swap-with-last removal.
type transmission struct {
	frame *Frame
	from  topology.NodeID
	idx   int32 // position in Medium.inflight, -1 when not in flight
}

// Medium is the shared radio channel: unit-disk propagation over the
// network graph, zero propagation delay, and a collision model in which
// any overlap of two receptions at a listening node corrupts the locked
// frame — unless the capture effect is enabled and one frame dominates
// the other by the capture margin. Networks stamped with lossy links
// (see topology.Network.SetLink) additionally lose each reception
// independently with probability 1−PRR, drawn at end of airtime from a
// deterministic per-directed-link stream.
//
// The neighbour lists and per-link PRR/gain tables come read-only from
// the run's world and the in-flight set is a flat slice, so the
// per-frame hot path (startTx/endTx/busy) does no map or graph lookups
// and no allocation: transmissions and frames are recycled through
// free-lists, the callbacks driving them are allocated once here rather
// than per event, and the per-link draw streams are built once by
// enableLoss (never on the perfect channel, whose event trace stays
// byte-identical to the pre-channel simulator).
type Medium struct {
	eng        *Engine
	xcvrs      []*Transceiver
	carriers   []int               // per node: transmissions currently audible
	nbrs       [][]topology.NodeID // per node: the world's neighbour list
	inflight   []*transmission
	committed  []*transmission // sent but still inside the inter-frame spacing
	collisions int

	// Hot per-node radio state, structure-of-arrays. The per-frame
	// loops (startTx/endTx/busy) sweep a node's whole neighbourhood;
	// keeping each field in its own flat array turns those sweeps into
	// contiguous cache-line reads instead of pointer chases through
	// per-node structs. Transceiver is only a handle over index id.
	states   []radio.State
	since    []Time
	halted   []bool // node is dead: the meters are frozen
	lock     []*transmission
	lockBad  []bool
	lockGain []float64 // received power (dB) of locked frame (capture)
	acc      []float64 // seconds per (node, radio.State): acc[id*5+state]

	// Channel state: linkPRR/linkGain/linkRNG[from][k] describe the
	// directed link from → nbrs[from][k]. linkPRR and linkRNG are nil on
	// a perfect channel, linkGain unless the world holds gains.
	lossy     bool
	capture   bool
	captureDB float64
	linkPRR   [][]float64
	linkGain  [][]float64
	linkRNG   [][]channel.DrawStream
	fades     int // receptions lost to the per-link delivery draw
	captures  int // overlaps survived via the capture effect

	txPool     []*transmission
	framePool  []*Frame
	txMade     int // transmissions ever allocated (pool-leak accounting)
	framesMade int // frames ever allocated (pool-leak accounting)

	// fault is the fault-injection runtime of the run, nil on
	// failure-free runs: the transceiver state machine notifies it of
	// every radio-state change so battery-depletion instants stay exact.
	fault *faultState

	// folding[i] is node i's MAC while its recurring steps are folded
	// out of the engine (see folder), nil otherwise. The table stays nil
	// until the first node folds, so runs without folds never scan it.
	folding []folder

	startTxCb  func(any) // cached: schedule startTx without a new closure
	finishTxCb func(any) // cached: schedule txDone+endTx without a new closure
}

// newMedium creates the channel over world w and one transceiver per
// node. The world supplies the neighbour lists and link-PRR/gain
// tables, all read-only; every mutable channel state stays per-run.
func newMedium(eng *Engine, w *Materialized, prof radio.Radio) *Medium {
	n := len(w.nbrs)
	m := &Medium{
		eng:      eng,
		xcvrs:    make([]*Transceiver, n),
		carriers: make([]int, n),
		nbrs:     w.nbrs,
		states:   make([]radio.State, n),
		since:    make([]Time, n),
		halted:   make([]bool, n),
		lock:     make([]*transmission, n),
		lockBad:  make([]bool, n),
		lockGain: make([]float64, n),
		acc:      make([]float64, n*5),
		linkPRR:  w.linkPRR,
		linkGain: w.linkGain,
	}
	handles := make([]Transceiver, n) // one allocation for all handles
	for i := range m.xcvrs {
		m.states[i] = radio.Sleep
		handles[i] = Transceiver{id: topology.NodeID(i), med: m, prof: prof}
		m.xcvrs[i] = &handles[i]
	}
	m.startTxCb = func(a any) { m.startTx(a.(*transmission)) }
	m.finishTxCb = func(a any) { m.finishTx(a.(*transmission)) }
	return m
}

// Transceiver returns node id's radio.
func (m *Medium) Transceiver(id topology.NodeID) *Transceiver { return m.xcvrs[id] }

// Collisions returns the number of corrupted receptions so far.
func (m *Medium) Collisions() int { return m.collisions }

// ChannelLosses returns the number of receptions lost to the per-link
// delivery draw (always 0 on a perfect channel).
func (m *Medium) ChannelLosses() int { return m.fades }

// Captures returns the number of overlaps a frame survived via the
// capture effect (always 0 when capture is disabled).
func (m *Medium) Captures() int { return m.captures }

// enableLoss switches on the per-link delivery draw, with one
// reception-draw stream per directed link derived from the run seed. A
// no-op on networks without lossy links (the world then holds no PRR
// table), so legacy runs never pay for (or perturb) the draw machinery.
func (m *Medium) enableLoss(seed int64) {
	if m.linkPRR == nil {
		return
	}
	m.lossy = true
	m.linkRNG = make([][]channel.DrawStream, len(m.nbrs))
	for i, nbrs := range m.nbrs {
		from := topology.NodeID(i)
		m.linkRNG[i] = make([]channel.DrawStream, len(nbrs))
		for k, nb := range nbrs {
			m.linkRNG[i][k] = channel.NewDrawStream(channel.DirectedLinkSeed(seed, from, nb))
		}
	}
}

// enableCapture switches the collision model to power capture with the
// given margin in dB (DefaultCaptureDB when non-positive). The world
// must hold gain tables (see Materialized.fits).
func (m *Medium) enableCapture(thresholdDB float64) {
	if thresholdDB <= 0 {
		thresholdDB = channel.DefaultCaptureDB
	}
	m.capture = true
	m.captureDB = thresholdDB
}

// newFrame returns a zeroed frame from the pool. The medium reclaims it
// after the transmission ends and every upcall has returned.
//
//edvet:hotpath
func (m *Medium) newFrame() *Frame {
	if n := len(m.framePool); n > 0 {
		f := m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
		*f = Frame{}
		return f
	}
	m.framesMade++
	return &Frame{}
}

// freeFrame returns a frame to the pool.
//
//edvet:hotpath
func (m *Medium) freeFrame(f *Frame) {
	if f.pooled {
		panic("double free of frame")
	}
	f.pooled = true
	f.Packet = nil
	m.framePool = append(m.framePool, f)
}

// newTransmission builds a pooled transmission for a frame leaving node
// `from`.
//
//edvet:hotpath
func (m *Medium) newTransmission(f *Frame, from topology.NodeID) *transmission {
	var tx *transmission
	if n := len(m.txPool); n > 0 {
		tx = m.txPool[n-1]
		m.txPool = m.txPool[:n-1]
	} else {
		tx = &transmission{}
		m.txMade++
	}
	tx.frame = f
	tx.from = from
	tx.idx = -1
	return tx
}

// addInflight appends tx to the in-flight set, recording its index.
//
//edvet:hotpath
func (m *Medium) addInflight(tx *transmission) {
	tx.idx = int32(len(m.inflight))
	m.inflight = append(m.inflight, tx)
}

// dropInflight removes tx by swapping the last element into its place.
//
//edvet:hotpath
func (m *Medium) dropInflight(tx *transmission) {
	i := tx.idx
	last := len(m.inflight) - 1
	moved := m.inflight[last]
	m.inflight[i] = moved
	moved.idx = i
	m.inflight[last] = nil
	m.inflight = m.inflight[:last]
	tx.idx = -1
}

// dropCommitted removes tx from the committed set (a linear scan: the
// set holds at most the transmissions inside one inter-frame spacing,
// almost always a single element).
//
//edvet:hotpath
func (m *Medium) dropCommitted(tx *transmission) {
	for i, c := range m.committed {
		if c == tx {
			last := len(m.committed) - 1
			m.committed[i] = m.committed[last]
			m.committed[last] = nil
			m.committed = m.committed[:last]
			return
		}
	}
}

// startTx propagates a new transmission to every neighbour of the sender.
//
//edvet:hotpath
func (m *Medium) startTx(tx *transmission) {
	m.dropCommitted(tx)
	m.addInflight(tx)
	for k, nb := range m.nbrs[tx.from] {
		m.carriers[nb]++
		if m.folding != nil {
			if f := m.folding[nb]; f != nil {
				f.fold(m.eng.now)
			}
		}
		if m.receive(nb, m.states[nb], tx, k) {
			m.setState(nb, radio.Rx)
		}
	}
}

// receive is a transmission's first bit at neighbour nb, whose radio is
// in state st; tx reaches it over link k of the sender's neighbour list.
// On a clean channel a listening node locks onto the frame, and receive
// reports it (the caller moves the radio to Rx); at a receiving node the
// overlap is resolved. Sleeping or transmitting nodes miss the frame
// entirely. A folding LMAC node takes a periodic control section's
// first bit here too.
//
//edvet:hotpath
func (m *Medium) receive(nb topology.NodeID, st radio.State, tx *transmission, k int) bool {
	switch {
	case st == radio.Listen && m.lock[nb] == nil:
		m.lock[nb] = tx
		m.lockBad[nb] = false
		if m.capture {
			m.lockGain[nb] = m.linkGain[tx.from][k]
		}
		return true
	case st == radio.Rx && m.lock[nb] != nil:
		m.overlap(nb, tx, k)
	}
	return false
}

// received ends neighbour nb's reception of its locked frame, sent by
// from over link k of from's neighbour list, and reports whether nb
// decoded it: no overlap corrupted it and the link's delivery draw
// passed it. The draw is per receiver: the link passes the frame with
// probability PRR, from the directed link's own deterministic stream
// (Float64 is in [0, 1), so a PRR of 1 never loses). A folding LMAC
// node ends a periodic control section here too.
//
//edvet:hotpath
func (m *Medium) received(nb, from topology.NodeID, k int) bool {
	ok := !m.lockBad[nb]
	m.lock[nb] = nil
	m.lockBad[nb] = false
	if ok && m.lossy && m.linkRNG[from][k].Float64() >= m.linkPRR[from][k] {
		ok = false
		m.fades++
	}
	return ok
}

// finishTx closes a transmission at its end instant: the sender's
// end-of-transmission upcall runs first (exactly as with a real radio's
// interrupt), then the medium delivers to receivers and recycles the
// record. Folding both into one event halves the end-of-frame scheduler
// traffic — transmissions are ~72% of all events — while preserving the
// sender-before-receivers order the Send contract promises.
//
//edvet:hotpath
func (m *Medium) finishTx(tx *transmission) {
	if m.folding != nil {
		if f := m.folding[tx.from]; f != nil {
			f.fold(m.eng.now)
		}
	}
	m.xcvrs[tx.from].txDone(tx.frame)
	m.endTx(tx)
}

// overlap resolves a second frame arriving at a receiving node. Without
// capture any overlap corrupts the locked frame; with capture the frame
// whose received power dominates the other's by the capture margin
// survives — an intact locked frame powers through a weak interferer,
// and a sufficiently strong late arrival steals the lock (its first bit
// is on the air now, so a clean reception of it is possible).
//
// Once a lock is corrupted, lockGain keeps tracking the strongest frame
// involved in the pile-up, so a late arrival only steals the lock by
// dominating every frame heard so far, not just the first one. (The
// strongest earlier frame may have left the air by then; accepting that
// approximation keeps the bookkeeping O(1) per overlap and errs toward
// corruption, never toward phantom deliveries.)
//
//edvet:hotpath
func (m *Medium) overlap(nb topology.NodeID, tx *transmission, k int) {
	if m.capture {
		newGain := m.linkGain[tx.from][k]
		if !m.lockBad[nb] && m.lockGain[nb] >= newGain+m.captureDB {
			m.captures++
			return
		}
		if newGain >= m.lockGain[nb]+m.captureDB {
			m.lock[nb] = tx
			m.lockBad[nb] = false
			m.lockGain[nb] = newGain
			m.captures++
			return
		}
		if newGain > m.lockGain[nb] {
			m.lockGain[nb] = newGain
		}
	}
	// Overlap corrupts whatever was being received.
	m.lockBad[nb] = true
	m.collisions++
}

// endTx removes the transmission, delivers it where reception survived,
// and recycles the frame and the transmission record.
//
//edvet:hotpath
func (m *Medium) endTx(tx *transmission) {
	m.dropInflight(tx)
	for k, nb := range m.nbrs[tx.from] {
		m.carriers[nb]--
		if m.lock[nb] != tx {
			continue
		}
		if m.folding != nil {
			if f := m.folding[nb]; f != nil {
				// A folded step (a slot's end) may have put the radio
				// down before the frame ended.
				if f.fold(m.eng.now); m.lock[nb] != tx {
					continue
				}
			}
		}
		ok := m.received(nb, tx.from, k)
		m.setState(nb, radio.Listen)
		if ok {
			if h := m.xcvrs[nb].handler; h != nil {
				h.OnFrame(tx.frame)
			}
		}
	}
	m.freeFrame(tx.frame)
	tx.frame = nil
	m.txPool = append(m.txPool, tx)
}

// quiesce clears the channel at an epoch boundary: every in-flight
// transmission is abandoned (its end event has already been dropped from
// the engine), carrier counts reset, and every transceiver is forced to
// Sleep with its time-in-state accounting settled up to the boundary —
// energy metering carries across the swap without a gap. Frames lost
// mid-air are not deliveries and not collisions; the packets they
// carried remain in their senders' queues wherever the protocol
// confirms before popping, so the next regime retries them.
func (m *Medium) quiesce() {
	m.foldAll(false)
	for _, tx := range m.inflight {
		m.freeFrame(tx.frame)
		tx.frame = nil
		tx.idx = -1
		m.txPool = append(m.txPool, tx)
	}
	m.inflight = m.inflight[:0]
	// Transmissions committed by Send but still inside the inter-frame
	// spacing never reached the in-flight set (their startTx event was
	// dropped); reclaim them too so the pools stay leak-free.
	for i, tx := range m.committed {
		m.freeFrame(tx.frame)
		tx.frame = nil
		m.txPool = append(m.txPool, tx)
		m.committed[i] = nil
	}
	m.committed = m.committed[:0]
	for i := range m.carriers {
		m.carriers[i] = 0
	}
	for i := range m.states {
		m.lock[i] = nil
		m.lockBad[i] = false
		// Bypass Sleep()'s in-transmission guard: the transmission this
		// radio was making no longer exists.
		m.setState(topology.NodeID(i), radio.Sleep)
	}
}

// A folder is a MAC layer whose recurring steps the medium holds out
// of the engine's queue: an idle X-MAC or B-MAC poll chain (lpl), an
// LMAC slot schedule (lmacNode). Until something can change what the
// node does next, each step is determined, so the folder applies it
// late, at its exact instant, and counts it as a processed event. The
// medium calls fold before it reads or changes a held node's radio.
type folder interface {
	// fold applies the steps due by t, in order.
	fold(t Time)
	// wake runs before a neighbour's Send puts a frame on the air.
	wake()
	// settle folds the steps due now and leaves the table without
	// queueing anything: the engine's queue has just been dropped, or
	// the run is over. With strict, the trigger is a fault point,
	// which the regime's install queued after its first steps: of the
	// steps due exactly now, only those queued before it are applied.
	settle(strict bool)
}

// hold lists node id's folder. A battery node's death timer stays
// disarmed while it is held: the folder bounds its span so that no
// depletion instant falls inside it (faultState.stretch).
func (m *Medium) hold(id topology.NodeID, f folder) {
	if m.folding == nil {
		m.folding = make([]folder, len(m.states))
	}
	m.folding[id] = f
	if fs := m.fault; fs != nil && fs.capacity != nil {
		fs.deathTimer[id].Cancel()
	}
}

// release takes node id off the table.
func (m *Medium) release(id topology.NodeID) { m.folding[id] = nil }

// held reports whether node id's steps are folded.
func (m *Medium) held(id topology.NodeID) bool { return m.folding != nil && m.folding[id] != nil }

// foldAll settles every held node (see folder.settle).
func (m *Medium) foldAll(strict bool) {
	for _, f := range m.folding {
		if f != nil {
			f.settle(strict)
		}
	}
}

// busy reports whether the channel is effectively occupied at the node:
// a transmission is audible, or a neighbour has committed to transmit
// (radio ramping up during the inter-frame spacing). Including committed
// transmitters models a CCA that detects the transmitter's ramp-up and
// closes the blind window the spacing would otherwise open.
//
//edvet:hotpath
func (m *Medium) busy(id topology.NodeID) bool {
	if m.carriers[id] > 0 {
		return true
	}
	for _, nb := range m.nbrs[id] {
		if m.states[nb] == radio.Tx {
			return true
		}
	}
	return false
}

// Transceiver is one node's radio: a state machine over
// sleep/listen/rx/tx that meters the time spent in every state. MAC
// implementations drive it and receive upcalls through their
// FrameHandler. The handle itself is thin — the mutable radio state
// lives in the Medium's structure-of-arrays, indexed by id — so MACs
// keep a stable object API while the per-frame loops stay flat.
type Transceiver struct {
	id      topology.NodeID
	med     *Medium
	prof    radio.Radio
	handler FrameHandler
}

// SetHandler installs the MAC upcall target; must be called before the
// simulation starts.
func (x *Transceiver) SetHandler(h FrameHandler) { x.handler = h }

// State returns the current radio state.
func (x *Transceiver) State() radio.State { return x.med.states[x.id] }

// setState accumulates elapsed time and switches state. A halted
// (dead) radio keeps ticking through states without metering — a
// powered-off node draws nothing — and on fault-injected runs every
// transition notifies the battery meter so depletion instants stay
// exact. Failure-free runs take neither branch.
//
//edvet:hotpath
func (m *Medium) setState(id topology.NodeID, s radio.State) {
	now := m.eng.Now()
	if !m.halted[id] {
		m.acc[int(id)*5+int(m.states[id])] += now - m.since[id]
	}
	m.since[id] = now
	m.states[id] = s
	if f := m.fault; f != nil {
		f.onState(m.xcvrs[id])
	}
}

// Sleep powers the radio down, aborting any reception in progress. It
// is a no-op while transmitting: the frame finishes first and the MAC
// decides again in OnTxDone.
func (x *Transceiver) Sleep() {
	m := x.med
	if m.states[x.id] == radio.Tx {
		return
	}
	m.lock[x.id] = nil
	m.lockBad[x.id] = false
	m.setState(x.id, radio.Sleep)
}

// Listen turns the receiver on (idle listening). If a neighbour started
// transmitting earlier the node cannot decode the partial frame — it
// senses a busy channel and locks onto the next one — with one
// exception: a wakeup preamble (FramePreamble) is detectable mid-flight,
// which is the mechanism low-power listening relies on. No-op while
// receiving or transmitting.
func (x *Transceiver) Listen() {
	s := x.med.states[x.id]
	if s == radio.Listen || s == radio.Rx || s == radio.Tx {
		return
	}
	x.med.setState(x.id, radio.Listen)
	x.med.midLock(x.id)
}

// midLock locks a freshly listening node onto an audible in-flight
// preamble, unless several carriers overlap (then nothing is decodable).
//
//edvet:hotpath
func (m *Medium) midLock(id topology.NodeID) {
	if m.carriers[id] != 1 {
		return
	}
	for _, tx := range m.inflight {
		if tx.frame.Kind != FramePreamble {
			continue
		}
		for k, nb := range m.nbrs[tx.from] {
			if nb == id {
				m.lock[id] = tx
				m.lockBad[id] = false
				if m.capture {
					m.lockGain[id] = m.linkGain[tx.from][k]
				}
				m.setState(id, radio.Rx)
				return
			}
		}
	}
}

// CarrierBusy reports whether the channel is busy at this node. The MAC
// uses it for CCA; it works in any radio state.
func (x *Transceiver) CarrierBusy() bool { return x.med.busy(x.id) }

// interFrameSpacing is the radio ramp-up between a Send call and the
// first bit on the air (one byte time at 250 kbit/s). Besides being
// physically real, it guarantees that a transmission triggered by a
// frame's end never starts at the same instant: all end-of-frame
// bookkeeping (peers returning to listen, carrier counts) settles first,
// which keeps back-to-back handshakes (strobe→ack→data→ack) race-free.
const interFrameSpacing = 32e-6

// Send puts a frame on the air after interFrameSpacing. Any reception in
// progress is aborted (the MAC should avoid that via CCA). OnTxDone
// fires when the airtime elapses; the radio then returns to Listen.
//
// The frame is handed over to the medium: it is delivered to receivers
// when the airtime ends and then recycled (see FrameHandler).
//
//edvet:hotpath
func (x *Transceiver) Send(f *Frame) {
	if f.pooled {
		panic("Send of pooled frame")
	}
	m := x.med
	if m.folding != nil {
		// The frame may reach every neighbour: a dozing X-MAC or B-MAC
		// one folds its chain up to now and resumes real polls before it
		// can matter.
		for _, nb := range m.nbrs[x.id] {
			if f := m.folding[nb]; f != nil {
				f.wake()
			}
		}
	}
	m.lock[x.id] = nil
	m.lockBad[x.id] = false
	m.setState(x.id, radio.Tx)
	// The sender's end-of-transmission upcall and the medium's delivery
	// run at the same instant inside one finishTx event: txDone first —
	// the sender learns its frame left the air before receivers process
	// it, exactly as with a real radio's end-of-transmission interrupt.
	start := x.med.eng.Now() + interFrameSpacing
	end := start + x.prof.FrameAirtime(f.Bytes)
	tx := x.med.newTransmission(f, x.id)
	x.med.committed = append(x.med.committed, tx)
	x.med.eng.AtCall(start, x.med.startTxCb, tx)
	x.med.eng.AtCall(end, x.med.finishTxCb, tx)
}

// txDone closes the sender side of a transmission.
//
//edvet:hotpath
func (x *Transceiver) txDone(f *Frame) {
	if f.pooled {
		panic("txDone on pooled frame")
	}
	x.med.setState(x.id, radio.Listen)
	if x.handler != nil {
		x.handler.OnTxDone(f)
	}
}

// Airtime returns the on-air duration of a frame of the given MAC size.
func (x *Transceiver) Airtime(bytes int) float64 { return x.prof.FrameAirtime(bytes) }

// finish closes the energy accounting at the current time.
func (x *Transceiver) finish() { x.med.setState(x.id, x.med.states[x.id]) }

// TimeIn returns the seconds spent in state s so far.
func (x *Transceiver) TimeIn(s radio.State) float64 { return x.med.acc[int(x.id)*5+int(s)] }

// Energy returns the joules consumed so far: Σ time(state) × power,
// summed from 0 in the order sleep, listen, receive, transmit. It runs
// at every transition of a battery node, so it reads the powers through
// a pointer rather than copying the profile per term.
func (x *Transceiver) Energy() float64 {
	acc := x.med.acc[int(x.id)*5 : int(x.id)*5+5]
	p := &x.prof
	total := 0.0
	total += acc[radio.Sleep] * p.PowerSleep
	total += acc[radio.Listen] * p.PowerListen
	total += acc[radio.Rx] * p.PowerRx
	total += acc[radio.Tx] * p.PowerTx
	return total
}
