package sim

import (
	"math"

	"github.com/edmac-project/edmac/internal/radio"
)

// lplPhase is the protocol state of an X-MAC or B-MAC node.
type lplPhase int

const (
	lplIdle     lplPhase = iota // radio asleep between polls
	lplPolling                  // periodic channel check in progress
	lplGap                      // X-MAC sender: listening for the early ACK between strobes
	lplWaitAck                  // sender: data sent, waiting for the ACK
	lplWaitData                 // receiver: waiting for the announced data frame
)

// lplMaxRetries bounds per-packet transmission attempts.
const lplMaxRetries = 5

// lplProtocol is what X-MAC and B-MAC add to the shared core.
type lplProtocol interface {
	// startSend starts the send procedure once CCA found the channel
	// clear: X-MAC's strobe train, B-MAC's long preamble.
	startSend()
}

// lpl is the low-power-listening core X-MAC and B-MAC share: the poll
// chain (a Listen every tw, held for pollWindow unless a frame holds
// it open), the send kick with its CCA backoff, the ACK and data
// timeouts, and the idle fold.
//
// The idle fold takes the polls that cannot matter out of the engine.
// A poll that finds the node with nothing queued, no procedure running
// and no carrier or committed transmitter in range still does its
// Listen, but then schedules nothing: the node dozes, and the medium
// lists it. Until something touches it, every later step of its chain
// — the window closing at p+pollWindow, the next poll at p+tw — is
// determined, so nothing is lost by applying those steps late. Whatever
// could change what the node does first folds them into its energy
// meters at their exact instants, with the arithmetic their events
// would have used, and counts each as a processed event: a neighbour's
// Send, the node's own arrival or send kick, an epoch boundary, the end
// of the run, and a battery node's stretch limit (see doze). Results
// keep their bits; only the engine's queue depth and wheel promotions
// change.
type lpl struct {
	*node
	tw         float64 // wakeup interval (the model's decision variable)
	pollWindow float64
	turn       float64

	phase   lplPhase
	busy    bool // a send or receive procedure is running
	retries int

	pollTimer Timer
	gapTimer  Timer // X-MAC's inter-strobe gap
	dataTimer Timer
	ackTimer  Timer

	pollFn        func()
	pollExpiredFn func()
	dataExpiredFn func()
	ackExpiredFn  func()
	attemptSendFn func()
	maybeSendFn   func()

	proto lplProtocol

	// The idle fold. While dozing, the chain stands at winEnd (the open
	// window's close, when phase is lplPolling) and next (the next
	// poll), and the queue is empty: a push goes through sampled, which
	// wakes the node, or through a received frame, whose Send woke it.
	dozing   bool
	foldable bool  // windows close strictly before the next poll up to the horizon
	winEnd   Time  // close of the open poll window
	next     Time  // the chain's next poll
	left     int   // polls the fold may still apply (battery stretch)
	stretch  Timer // the real poll that ends a battery node's fold
}

// init wires the shared core of protocol proto over node n: poll
// interval tw and window pollWindow. horizon is the run's end, up to
// which the fold must keep the chain's step order.
func (c *lpl) init(proto lplProtocol, n *node, tw, pollWindow, horizon float64) {
	c.node = n
	c.tw = tw
	c.pollWindow = pollWindow
	c.turn = n.x.prof.Turnaround
	// Chain instants never exceed horizon+tw, so with this gap every
	// window, rounded, still closes strictly before its successor poll:
	// fl(q+pollWindow) < fl(q+tw) for every poll q of the run.
	c.foldable = tw-pollWindow > (horizon+tw)*0x1p-50
	c.proto = proto
	c.pollFn = c.poll
	c.pollExpiredFn = c.pollExpired
	c.dataExpiredFn = c.dataExpired
	c.ackExpiredFn = c.ackExpired
	c.attemptSendFn = c.attemptSend
	c.maybeSendFn = c.maybeSend
}

// start implements macLayer.
func (c *lpl) start() {
	c.x.Sleep()
	c.eng.After(c.rng.Float64()*c.tw, c.pollFn)
}

// sampled implements macLayer.
func (c *lpl) sampled(p *Packet) {
	c.wake()
	c.push(p)
	if !c.busy {
		c.attemptSend()
	}
}

// poll is the periodic channel check.
func (c *lpl) poll() {
	if c.dozing {
		// The real poll that bounds a battery node's fold.
		c.fold(c.eng.Now())
		c.undoze()
	}
	if !c.busy && c.doze() {
		return
	}
	c.eng.After(c.tw, c.pollFn)
	if c.busy {
		return
	}
	c.x.Listen() // B-MAC: midLock may land us straight in Rx on a preamble
	c.phase = lplPolling
	c.busy = true
	c.pollTimer = c.eng.After(c.pollWindow, c.pollExpiredFn)
}

// pollExpired closes the poll unless a reception is still in flight.
func (c *lpl) pollExpired() {
	if c.phase != lplPolling {
		return
	}
	if c.x.State() == radio.Rx || c.x.CarrierBusy() {
		// Mid-frame: extend until the frame resolves.
		c.pollTimer = c.eng.After(c.x.Airtime(c.dataBytes), c.pollExpiredFn)
		return
	}
	c.finish()
	c.maybeSend()
}

// finish cancels every pending protocol timer and returns the node to
// its idle sleeping state.
func (c *lpl) finish() {
	c.pollTimer.Cancel()
	c.gapTimer.Cancel()
	c.dataTimer.Cancel()
	c.ackTimer.Cancel()
	c.phase = lplIdle
	c.busy = false
	c.x.Sleep()
}

// maybeSend kicks the sender when traffic is pending.
func (c *lpl) maybeSend() {
	c.wake()
	if !c.busy && c.head() != nil {
		c.attemptSend()
	}
}

// attemptSend starts the send procedure for the head-of-queue packet
// after a clear CCA, or backs off within half a wakeup interval.
func (c *lpl) attemptSend() {
	c.wake()
	if c.busy || c.head() == nil || c.isSink() {
		return
	}
	c.busy = true
	c.x.Listen()
	if c.x.CarrierBusy() {
		c.busy = false
		c.x.Sleep()
		c.eng.After(c.rng.Float64()*c.tw/2, c.attemptSendFn)
		return
	}
	c.proto.startSend()
}

// dataExpired fires when the announced data frame never arrived (the
// exchange collided or the sender died mid-handshake).
func (c *lpl) dataExpired() {
	if c.phase != lplWaitData {
		return
	}
	c.finish()
	c.maybeSend()
}

// ackExpired fires when the data ACK never came.
func (c *lpl) ackExpired() {
	if c.phase != lplWaitAck {
		return
	}
	c.retries++
	if c.retries > lplMaxRetries {
		c.pop()
		c.metrics.recordDropped()
		c.retries = 0
	}
	c.finish()
	c.eng.After(c.rng.Float64()*c.tw, c.maybeSendFn)
}

// doze starts an idle poll, if this one is idle, and reports whether it
// did. An idle poll is one at which the node has nothing queued, its
// radio is asleep and the channel is clear (no carrier, no neighbour
// committed to transmit): it does the poll's Listen, records where its
// chain stands and registers with the medium instead of scheduling the
// window's close and the next poll.
//
// A battery node's depletion instant depends on every transition, so
// its fold spans only the cycles its residual provably survives (see
// faultState.stretch): the last of them is a real poll event, and a
// node with fewer than two such cycles polls as usual.
func (c *lpl) doze() bool {
	m := c.x.med
	if !c.foldable || c.head() != nil || m.states[c.id] != radio.Sleep || m.busy(c.id) {
		return false
	}
	cycle := c.pollWindow*math.Max(c.x.prof.PowerListen, c.x.prof.PowerRx) + c.tw*c.x.prof.PowerSleep
	k := m.fault.stretch(c.x, cycle)
	if k >= 0 && k < 2 {
		return false
	}
	now := c.eng.Now()
	c.x.Listen()
	c.phase = lplPolling
	c.busy = true
	c.winEnd = now + c.pollWindow
	c.next = now + c.tw
	c.dozing = true
	// The death timer the Listen just armed assumes the radio keeps
	// listening; the fold's transitions would move it. Holding the node
	// disarms it until the doze ends (wake and the stretch's poll re-arm
	// it).
	m.hold(c.id, c)
	c.left = math.MaxInt // no stretch limit
	if k >= 0 {
		last := now
		for i := 0; i < k; i++ {
			last += c.tw
		}
		c.left = k - 1
		c.stretch = c.eng.At(last, c.pollFn)
	}
	return true
}

// fold applies the dozing chain's steps due by t, in order, each at its
// own instant, with setState's metering arithmetic: a window close is
// pollExpired on an idle channel (Sleep; the empty queue sends
// nothing), a poll is poll's Listen with its window and successor. Each
// counts as one processed event. A dozing node is alive, so its meters
// always run; the loop keeps them in locals and stores them once.
//
//edvet:hotpath
func (c *lpl) fold(t Time) {
	m := c.x.med
	row := int(c.id) * 5
	listen, sleep := m.acc[row+int(radio.Listen)], m.acc[row+int(radio.Sleep)]
	since, winEnd, next, left := m.since[c.id], c.winEnd, c.next, c.left
	open := c.phase == lplPolling
	var steps uint64
	for {
		if open {
			if winEnd > t {
				break
			}
			listen += winEnd - since
			since = winEnd
		} else {
			if next > t || left == 0 {
				break
			}
			sleep += next - since
			since = next
			winEnd = next + c.pollWindow
			next += c.tw
			left--
		}
		open = !open
		steps++
	}
	if steps == 0 {
		return
	}
	m.acc[row+int(radio.Listen)], m.acc[row+int(radio.Sleep)] = listen, sleep
	m.since[c.id] = since
	c.winEnd, c.next, c.left = winEnd, next, left
	c.busy = open
	if open {
		m.states[c.id] = radio.Listen
		c.phase = lplPolling
	} else {
		m.states[c.id] = radio.Sleep
		c.phase = lplIdle
	}
	c.eng.processed += steps
}

// wake ends a doze at the current instant: the chain's steps so far are
// folded, the rest is re-scheduled as events at its exact instants (the
// next poll, and the window's close when one is open), and a battery
// node's death timer is re-armed from its last folded transition. A
// no-op for a node that is not dozing.
func (c *lpl) wake() {
	if !c.dozing {
		return
	}
	c.fold(c.eng.Now())
	c.undoze()
	c.eng.At(c.next, c.pollFn)
	if fs := c.x.med.fault; fs != nil {
		fs.onState(c.x)
	}
	if c.phase == lplPolling {
		c.pollTimer = c.eng.At(c.winEnd, c.pollExpiredFn)
	}
}

// undoze takes the node off the medium's fold table.
func (c *lpl) undoze() {
	c.dozing = false
	c.x.med.release(c.id)
	c.stretch.Cancel()
}

// settle implements folder. The chain's steps were queued at its
// polls, after the regime's fault points: under strict, none due
// exactly now is applied.
func (c *lpl) settle(strict bool) {
	t := c.eng.Now()
	if strict {
		t = math.Nextafter(t, math.Inf(-1))
	}
	c.fold(t)
	c.undoze()
}
