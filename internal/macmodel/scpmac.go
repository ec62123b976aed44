package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// SCP-MAC poll-period bounds in seconds and sync constants.
const (
	scpPollMin = 0.05
	scpPollMax = 10.0
	// scpSyncPeriod is the schedule-synchronization beacon period.
	scpSyncPeriod = 60.0
	// scpToneFactor sizes the wakeup tone relative to the residual clock
	// drift: the tone must cover twice the maximum drift between
	// re-synchronizations (drift scpDrift per second, two-sided).
	scpDrift = 30e-6
)

// SCPMAC is the analytic model of SCP-MAC (Ye, Silva, Heidemann, SenSys
// 2006): scheduled channel polling. All nodes synchronize their polls,
// so a sender needs only a short wakeup tone covering the residual clock
// drift instead of X-MAC's half-interval strobe train — trading
// synchronization traffic for far cheaper transmissions at ultra-low
// duty cycles.
//
// It is the representative of the fourth duty-cycled MAC category
// (scheduled polling) referenced in the paper's related work ([10]); the
// paper's evaluation covers the other three. It extends the framework
// the same way B-MAC does, and the ablation benchmarks contrast it with
// X-MAC.
//
// Parameter vector: X = (Tp), the common poll period.
type SCPMAC struct {
	env      Env
	flows    traffic.RingFlows
	attempts float64 // expected tx attempts per hop (1 on perfect links)

	tData float64
	tAck  float64
	tSync float64
	tPoll float64
	tCW   float64

	tone       float64 // wakeup-tone duration, see toneTime
	out1       float64 // ring-1 transmit rate, attempts included
	syncTime   float64 // per-window time spent sending (and hearing) beacons
	syncTx     float64 // per-window beacon transmit energy
	syncRx     float64 // per-window beacon receive energy
	bottleneck ringTerms
}

var _ Model = (*SCPMAC)(nil)

// NewSCPMAC builds the SCP-MAC model for env.
func NewSCPMAC(env Env) (*SCPMAC, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	r := env.Radio
	m := &SCPMAC{
		env:      env,
		flows:    env.Flows(),
		attempts: env.Attempts(),
		tData:    env.DataAirtime(),
		tAck:     env.AckAirtime(),
		tSync:    env.SyncAirtime(),
		tPoll:    r.Startup + 2*r.CCA,
		tCW:      8 * r.CCA,
	}
	m.tone = m.toneTime()
	m.out1 = m.attempts * m.flows.Out(1)
	// Synchronization beacons keep the poll schedule aligned.
	m.syncTime = env.Window / scpSyncPeriod * m.tSync
	m.syncTx = m.syncTime * r.PowerTx
	m.syncRx = m.syncTime * r.PowerRx
	m.bottleneck = m.ringTerms(m.flows.Bottleneck())
	if err := validateSpecs(m.Name(), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Model.
func (m *SCPMAC) Name() string { return "scpmac" }

// Params implements Model.
func (m *SCPMAC) Params() []ParamSpec {
	return []ParamSpec{{Name: "poll-period", Unit: "s", Min: scpPollMin, Max: scpPollMax}}
}

// Bounds implements Model.
func (m *SCPMAC) Bounds() opt.Bounds { return boundsOf(m.Params()) }

// toneTime returns the wakeup-tone duration: twice the worst-case drift
// accumulated over a sync period, floored at one CCA so the tone is
// detectable.
func (m *SCPMAC) toneTime() float64 {
	tone := 2 * scpDrift * scpSyncPeriod
	if cca := m.env.Radio.CCA; tone < cca {
		tone = cca
	}
	return tone
}

// Structural implements Model: the bottleneck node must stay unsaturated
// within its poll period (one packet per poll on average at most).
func (m *SCPMAC) Structural() []opt.Constraint {
	return []opt.Constraint{{
		F: func(x opt.Vector) float64 {
			return m.out1*x[0] - 0.9
		},
	}}
}

// ringTerms returns the ring's parameter-independent energy terms: with
// synchronized polls, only the polling itself depends on the period.
// Lossy links repeat the tone/data/ACK exchange per attempt.
func (m *SCPMAC) ringTerms(ring int) ringTerms {
	r := &m.env.Radio
	t := windowLoad(m.env, m.flows, m.attempts, ring)

	// Transmit: contend briefly before the scheduled poll, send the tone
	// and the data, collect the ACK. No long preamble — that is the
	// whole point of synchronized polling.
	txTimePerPkt := m.tCW/2 + m.tone + m.tData + r.Turnaround + m.tAck
	txPerPkt := m.tCW/2*r.PowerListen + (m.tone+m.tData)*r.PowerTx +
		r.Turnaround*r.PowerListen + m.tAck*r.PowerRx
	t.tx = t.wOut * txPerPkt
	t.txTime = t.wOut * txTimePerPkt

	// Receive: the poll caught a tone; stay up for the data, reply.
	rxTimePerPkt := m.tone + m.tData + r.Turnaround + m.tAck
	rxPerPkt := (m.tone+m.tData)*r.PowerRx + r.Turnaround*r.PowerListen + m.tAck*r.PowerTx
	t.rx = t.wIn * rxPerPkt
	t.rxTime = t.wIn * rxTimePerPkt

	// Overhear: synchronized polls wake every neighbour for every tone;
	// non-targets decode the data header and drop.
	t.ovrTime = t.wBg * (m.tone + m.env.HeaderAirtime())
	t.ovr = t.ovrTime * r.PowerRx
	return t
}

// EnergyAt implements Model.
//
//edvet:hotpath
func (m *SCPMAC) EnergyAt(x opt.Vector, ring int) Components {
	t := m.ringTerms(ring)
	cs, sleep := m.energy(x[0], &t)
	return Components{
		CarrierSense: cs,
		Tx:           t.tx,
		Rx:           t.rx,
		Overhear:     t.ovr,
		SyncTx:       m.syncTx,
		SyncRx:       m.syncRx,
		Sleep:        sleep,
	}
}

// energy returns the poll-period-dependent components of a node with
// ring terms t at poll period tp: carrier sense and sleep energy.
//
//edvet:hotpath
func (m *SCPMAC) energy(tp float64, t *ringTerms) (cs, sleep float64) {
	r := &m.env.Radio
	w := m.env.Window

	// Synchronized polls: a short CCA pair every poll period.
	csTime := w / tp * m.tPoll
	cs = csTime * r.PowerListen

	awake := csTime + t.txTime + t.rxTime + t.ovrTime + m.syncTime + m.syncTime
	sleepTime := w - awake
	if sleepTime < 0 {
		sleepTime = 0
	}
	return cs, sleepTime * r.PowerSleep
}

// Energy implements Model.
//
//edvet:hotpath
func (m *SCPMAC) Energy(x opt.Vector) float64 {
	t := &m.bottleneck
	cs, sleep := m.energy(x[0], t)
	return total(cs, t.tx, t.rx, t.ovr, m.syncTx, m.syncRx, sleep)
}

// Delay implements Model: a packet waits half a poll period for the next
// synchronized poll, then completes the tone/data exchange, per hop —
// the whole service repeating per expected attempt on lossy links.
//
//edvet:hotpath
func (m *SCPMAC) Delay(x opt.Vector) float64 {
	tp := x[0]
	perHop := tp/2 + m.tone + m.tData + m.env.Radio.Turnaround + m.tAck
	return float64(m.env.Rings.Depth) * perHop * m.attempts
}

// String returns a short human-readable description.
func (m *SCPMAC) String() string {
	return fmt.Sprintf("scpmac(D=%d,C=%d)", m.env.Rings.Depth, m.env.Rings.Density)
}
