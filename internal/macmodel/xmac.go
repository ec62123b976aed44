package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// X-MAC wakeup-interval bounds in seconds. The lower bound is the
// shortest check interval the poll cost amortizes over sensibly (and the
// knob below which the delay-optimal configuration saturates); the upper
// bound keeps per-hop latency within the paper's figure range.
const (
	xmacTwMin = 0.064
	xmacTwMax = 5.0
)

// XMAC is the analytic model of X-MAC (Buettner et al., SenSys 2006):
// asynchronous preamble sampling with strobed preambles and early ACK.
//
// Parameter vector: X = (Tw), the wakeup (channel-check) interval.
// Receivers briefly poll the channel every Tw; a sender strobes short
// address-carrying preambles for Tw/2 on average until the target wakes,
// ACKs, and receives the data frame. Strobed preambles make overhearing
// cheap: third parties decode one strobe and go back to sleep.
type XMAC struct {
	env      Env
	flows    traffic.RingFlows
	attempts float64 // expected tx attempts per hop (1 on perfect links)

	tData   float64 // data frame airtime
	tAck    float64 // ACK airtime
	tStrobe float64 // one strobe airtime
	tGap    float64 // inter-strobe gap (early-ACK listening window)
	tPeriod float64 // strobe period: strobe + gap
	tPoll   float64 // receiver poll duration: startup + 2 CCA
	tShake  float64 // post-wakeup handshake: strobe + ACK + data + turnarounds

	strobePower float64 // mean power while strobing: strobe tx + gap listening
	dataTx      float64 // data frame airtime × PowerTx
	ackRx       float64 // ACK airtime × PowerRx
	out1        float64 // ring-1 transmit rate
	inShake1    float64 // ring-1 receive rate × handshake time
	bottleneck  ringTerms
}

var _ Model = (*XMAC)(nil)

// NewXMAC builds the X-MAC model for env.
func NewXMAC(env Env) (*XMAC, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	r := env.Radio
	m := &XMAC{
		env:      env,
		flows:    env.Flows(),
		attempts: env.Attempts(),
		tData:    env.DataAirtime(),
		tAck:     env.AckAirtime(),
		tStrobe:  env.StrobeAirtime(),
		tGap:     env.AckAirtime() + 2*r.Turnaround,
	}
	m.tPeriod = m.tStrobe + m.tGap
	m.tPoll = r.Startup + 2*r.CCA
	m.tShake = m.tStrobe + r.Turnaround + m.tAck + r.Turnaround + m.tData
	strobeDuty := m.tStrobe / m.tPeriod
	m.strobePower = strobeDuty*r.PowerTx + (1-strobeDuty)*r.PowerListen
	m.dataTx = m.tData * r.PowerTx
	m.ackRx = m.tAck * r.PowerRx
	m.out1 = m.flows.Out(1)
	m.inShake1 = m.flows.In(1) * m.tShake
	m.bottleneck = m.ringTerms(m.flows.Bottleneck())
	if err := validateSpecs(m.Name(), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Model.
func (m *XMAC) Name() string { return "xmac" }

// Params implements Model.
func (m *XMAC) Params() []ParamSpec {
	return []ParamSpec{{Name: "wakeup-interval", Unit: "s", Min: xmacTwMin, Max: xmacTwMax}}
}

// Bounds implements Model.
func (m *XMAC) Bounds() opt.Bounds { return boundsOf(m.Params()) }

// Structural implements Model: the bottleneck node must stay unsaturated
// — the time it spends strobing and forwarding must remain below half
// the window, or the low-rate queueing assumptions collapse.
func (m *XMAC) Structural() []opt.Constraint {
	return []opt.Constraint{{
		F: func(x opt.Vector) float64 {
			return m.utilization(x) - 0.5
		},
	}}
}

// utilization returns the busy fraction of the bottleneck node,
// including the retransmissions lossy links force.
func (m *XMAC) utilization(x opt.Vector) float64 {
	tw := x[0]
	perPacket := tw/2 + m.tShake
	return m.attempts * (m.out1*perPacket + m.inShake1)
}

// ringTerms returns the ring's parameter-independent energy terms.
func (m *XMAC) ringTerms(ring int) ringTerms {
	r := &m.env.Radio
	t := windowLoad(m.env, m.flows, m.attempts, ring)
	// Receive: after its poll catches a strobe, the node hears the rest
	// of the strobe period, sends the early ACK, and receives the data.
	rxTimePerPkt := m.tPeriod/2 + m.tStrobe + m.tAck + m.tData
	t.rx = t.wIn * (m.tPeriod/2*r.PowerListen + m.tStrobe*r.PowerRx + m.tAck*r.PowerTx + m.tData*r.PowerRx)
	t.rxTime = t.wIn * rxTimePerPkt
	// Overhear: one strobe header identifies a foreign target.
	t.ovrTime = t.wBg * m.tStrobe
	t.ovr = t.ovrTime * r.PowerRx
	return t
}

// EnergyAt implements Model.
//
//edvet:hotpath
func (m *XMAC) EnergyAt(x opt.Vector, ring int) Components {
	t := m.ringTerms(ring)
	cs, tx, sleep := m.energy(x[0], &t)
	return Components{CarrierSense: cs, Tx: tx, Rx: t.rx, Overhear: t.ovr, Sleep: sleep}
}

// energy returns the wakeup-interval-dependent components of a node
// with ring terms t at wakeup interval tw: carrier sense, transmit and
// sleep energy.
//
//edvet:hotpath
func (m *XMAC) energy(tw float64, t *ringTerms) (cs, tx, sleep float64) {
	r := &m.env.Radio
	w := m.env.Window

	// Periodic channel polls: startup plus two CCAs per check.
	csTime := w / tw * m.tPoll
	cs = csTime * r.PowerListen

	// Transmit: strobe for Tw/2 on average (transmitting a strobe, then
	// listening in the gap for the early ACK), then the data exchange.
	txTimePerPkt := tw/2 + m.tData + m.tAck
	tx = t.wOut * (tw/2*m.strobePower + m.dataTx + m.ackRx)

	awake := csTime + t.wOut*txTimePerPkt + t.rxTime + t.ovrTime
	sleepTime := w - awake
	if sleepTime < 0 {
		sleepTime = 0
	}
	return cs, tx, sleepTime * r.PowerSleep
}

// Energy implements Model.
//
//edvet:hotpath
func (m *XMAC) Energy(x opt.Vector) float64 {
	t := &m.bottleneck
	cs, tx, sleep := m.energy(x[0], t)
	return total(cs, tx, t.rx, t.ovr, 0, 0, sleep)
}

// Delay implements Model: each hop waits Tw/2 on average for the
// receiver's poll, then completes the strobe/ACK/data handshake — and
// repeats the whole service per expected attempt on lossy links.
//
//edvet:hotpath
func (m *XMAC) Delay(x opt.Vector) float64 {
	tw := x[0]
	return float64(m.env.Rings.Depth) * (tw/2 + m.tShake) * m.attempts
}

// String returns a short human-readable description.
func (m *XMAC) String() string {
	return fmt.Sprintf("xmac(D=%d,C=%d)", m.env.Rings.Depth, m.env.Rings.Density)
}
