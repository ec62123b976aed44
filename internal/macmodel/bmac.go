package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// B-MAC wakeup-interval bounds in seconds.
const (
	bmacTwMin = 0.01
	bmacTwMax = 2.0
)

// BMAC is the analytic model of classic low-power-listening (B-MAC,
// Polastre et al.): senders transmit one full-length, address-free
// preamble spanning the whole check interval before each data frame.
//
// It is not part of the paper's evaluation; it extends the framework to
// a fourth protocol and anchors the ablation benchmarks — its address-
// free preamble makes both transmission and overhearing dramatically
// more expensive than X-MAC's strobes, which is visible straight from
// the component decomposition.
//
// Parameter vector: X = (Tw), the wakeup (channel-check) interval.
type BMAC struct {
	env      Env
	flows    traffic.RingFlows
	attempts float64 // expected tx attempts per hop (1 on perfect links)

	tData float64
	tPoll float64

	out1       float64 // ring-1 transmit rate, attempts included
	bottleneck ringTerms
}

var _ Model = (*BMAC)(nil)

// NewBMAC builds the B-MAC model for env.
func NewBMAC(env Env) (*BMAC, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	m := &BMAC{
		env:      env,
		flows:    env.Flows(),
		attempts: env.Attempts(),
		tData:    env.DataAirtime(),
		tPoll:    env.Radio.Startup + 2*env.Radio.CCA,
	}
	m.out1 = m.attempts * m.flows.Out(1)
	// Every term depends on the wakeup interval: the preamble spans it.
	// Lossy links repeat the whole preamble+data exchange per attempt.
	m.bottleneck = windowLoad(env, m.flows, m.attempts, m.flows.Bottleneck())
	if err := validateSpecs(m.Name(), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Model.
func (m *BMAC) Name() string { return "bmac" }

// Params implements Model.
func (m *BMAC) Params() []ParamSpec {
	return []ParamSpec{{Name: "wakeup-interval", Unit: "s", Min: bmacTwMin, Max: bmacTwMax}}
}

// Bounds implements Model.
func (m *BMAC) Bounds() opt.Bounds { return boundsOf(m.Params()) }

// Structural implements Model.
func (m *BMAC) Structural() []opt.Constraint {
	return []opt.Constraint{{
		F: func(x opt.Vector) float64 {
			tw := x[0]
			return m.out1*(tw+m.tData) - 0.5
		},
	}}
}

// EnergyAt implements Model.
//
//edvet:hotpath
func (m *BMAC) EnergyAt(x opt.Vector, ring int) Components {
	t := windowLoad(m.env, m.flows, m.attempts, ring)
	cs, tx, rx, ovr, sleep := m.energy(x[0], &t)
	return Components{CarrierSense: cs, Tx: tx, Rx: rx, Overhear: ovr, Sleep: sleep}
}

// energy returns the components of a node with ring terms t at wakeup
// interval tw, all of which depend on it: carrier sense, transmit,
// receive, overhearing and sleep energy.
//
//edvet:hotpath
func (m *BMAC) energy(tw float64, t *ringTerms) (cs, tx, rx, ovr, sleep float64) {
	r := &m.env.Radio
	w := m.env.Window

	csTime := w / tw * m.tPoll
	cs = csTime * r.PowerListen

	// The preamble must span a full check interval to guarantee capture.
	txTimePerPkt := tw + m.tData
	tx = t.wOut * txTimePerPkt * r.PowerTx

	// The receiver catches the preamble half-way on average and must hang
	// on until the data arrives — and so does every overhearer, because
	// the preamble carries no address.
	rxTimePerPkt := tw/2 + m.tData
	rx = t.wIn * rxTimePerPkt * r.PowerRx
	ovrTime := t.wBg * rxTimePerPkt
	ovr = ovrTime * r.PowerRx

	awake := csTime + t.wOut*txTimePerPkt + t.wIn*rxTimePerPkt + ovrTime
	sleepTime := w - awake
	if sleepTime < 0 {
		sleepTime = 0
	}
	return cs, tx, rx, ovr, sleepTime * r.PowerSleep
}

// Energy implements Model.
//
//edvet:hotpath
func (m *BMAC) Energy(x opt.Vector) float64 {
	cs, tx, rx, ovr, sleep := m.energy(x[0], &m.bottleneck)
	return total(cs, tx, rx, ovr, 0, 0, sleep)
}

// Delay implements Model: every hop pays the full preamble plus data,
// once per expected attempt on lossy links.
//
//edvet:hotpath
func (m *BMAC) Delay(x opt.Vector) float64 {
	tw := x[0]
	return float64(m.env.Rings.Depth) * (tw + m.tData) * m.attempts
}

// String returns a short human-readable description.
func (m *BMAC) String() string {
	return fmt.Sprintf("bmac(D=%d,C=%d)", m.env.Rings.Depth, m.env.Rings.Density)
}
