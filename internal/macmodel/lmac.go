package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// LMAC parameter limits.
const (
	// lmacSlotsMax caps the frame size in slots.
	lmacSlotsMax = 128
	// lmacSlotMax caps the slot length in seconds; the tail of a slot
	// beyond control+data is sleep padding, LMAC's energy lever.
	lmacSlotMax = 0.5
	// lmacCapacity caps expected packets per frame per node, since a node
	// owns exactly one slot per frame.
	lmacCapacity = 0.9
)

// LMAC is the analytic model of LMAC (van Hoesel & Havinga, INSS 2004):
// frame-based TDMA where every node owns one slot per frame. Each slot
// opens with a control section; the owner always transmits it (ownership
// maintenance + sync), and every other node listens to every control
// section to track its two-hop schedule, then sleeps through data
// sections not addressed to it. That always-on control tracking is
// LMAC's energy floor and makes it the most energy-hungry of the three
// protocols, exactly as in the paper's figures.
//
// Parameter vector: X = (N, tslot) — slots per frame and slot length.
// N is continuous in the model and rounded by the simulator.
type LMAC struct {
	env      Env
	flows    traffic.RingFlows
	attempts float64 // expected tx attempts per hop (1 on perfect links)

	tData    float64
	tCtrl    float64
	slotMin  float64 // control + CCA + data + turnaround
	slotsMin float64 // 2C+3: a conflict-free 2-hop schedule must fit

	out1       float64 // ring-1 transmit rate, attempts included
	tTrack     float64 // control tracking per foreign slot: control + CCA
	bottleneck ringTerms
}

var _ Model = (*LMAC)(nil)

// NewLMAC builds the LMAC model for env.
func NewLMAC(env Env) (*LMAC, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	r := env.Radio
	m := &LMAC{
		env:      env,
		flows:    env.Flows(),
		attempts: env.Attempts(),
		tData:    env.DataAirtime(),
		tCtrl:    env.CtrlAirtime(),
	}
	m.slotMin = m.tCtrl + r.CCA + m.tData + r.Turnaround
	m.slotsMin = float64(2*env.Rings.Density + 3)
	if m.slotsMin >= lmacSlotsMax {
		return nil, fmt.Errorf("macmodel: lmac needs at least %v slots for density %d, above the %d-slot cap",
			m.slotsMin, env.Rings.Density, lmacSlotsMax)
	}
	m.out1 = m.attempts * m.flows.Out(1)
	m.tTrack = m.tCtrl + r.CCA
	m.bottleneck = m.ringTerms(m.flows.Bottleneck())
	if err := validateSpecs(m.Name(), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Model.
func (m *LMAC) Name() string { return "lmac" }

// Params implements Model.
func (m *LMAC) Params() []ParamSpec {
	return []ParamSpec{
		{Name: "frame-slots", Unit: "slots", Min: m.slotsMin, Max: lmacSlotsMax},
		{Name: "slot-length", Unit: "s", Min: m.slotMin, Max: lmacSlotMax},
	}
}

// Bounds implements Model.
func (m *LMAC) Bounds() opt.Bounds { return boundsOf(m.Params()) }

// Structural implements Model: a node owning one slot per frame must see
// less than one outgoing packet per frame on average.
func (m *LMAC) Structural() []opt.Constraint {
	return []opt.Constraint{{
		F: func(x opt.Vector) float64 {
			frame := x[0] * x[1]
			return m.out1*frame - lmacCapacity
		},
	}}
}

// ringTerms returns the ring's parameter-independent energy terms: the
// data sections. Lossy links repeat a hop's data section in a later
// owned slot, so the data flows carry the expected attempts (the
// control-tracking baseline is schedule-driven and does not).
func (m *LMAC) ringTerms(ring int) ringTerms {
	r := &m.env.Radio
	t := windowLoad(m.env, m.flows, m.attempts, ring)
	// Data: collision-free by schedule — no contention, no preamble.
	t.txTime = t.wOut * m.tData
	t.tx = t.txTime * r.PowerTx
	t.rxTime = t.wIn * (m.tData + r.Turnaround)
	t.rx = t.wIn * (m.tData*r.PowerRx + r.Turnaround*r.PowerListen)
	return t
}

// EnergyAt implements Model.
//
//edvet:hotpath
func (m *LMAC) EnergyAt(x opt.Vector, ring int) Components {
	t := m.ringTerms(ring)
	stx, srx, sleep := m.energy(x[0], x[1], &t)
	return Components{Tx: t.tx, Rx: t.rx, SyncTx: stx, SyncRx: srx, Sleep: sleep}
}

// energy returns the schedule-dependent components of a node with ring
// terms t at slots slots per frame of length tslot: its control
// beacons, its control tracking and its sleep energy.
//
//edvet:hotpath
func (m *LMAC) energy(slots, tslot float64, t *ringTerms) (stx, srx, sleep float64) {
	frame := slots * tslot
	r := &m.env.Radio
	w := m.env.Window

	// Control tracking: listen to the control section (plus a CCA to
	// catch the section start) of every slot it does not own.
	srxTime := w * (slots - 1) / frame * m.tTrack
	srx = srxTime * r.PowerRx

	// Own slot: the control beacon goes out every frame, data or not.
	stxTime := w / frame * m.tCtrl
	stx = stxTime * r.PowerTx

	awake := srxTime + stxTime + t.txTime + t.rxTime
	sleepTime := w - awake
	if sleepTime < 0 {
		sleepTime = 0
	}
	return stx, srx, sleepTime * r.PowerSleep
}

// Energy implements Model.
//
//edvet:hotpath
func (m *LMAC) Energy(x opt.Vector) float64 {
	t := &m.bottleneck
	stx, srx, sleep := m.energy(x[0], x[1], t)
	return total(0, t.tx, t.rx, 0, stx, srx, sleep)
}

// Delay implements Model: at every hop a packet waits half a frame on
// average for the forwarder's owned slot, then occupies one data
// section. On lossy links every expected extra attempt defers the hop
// by one full frame (the next owned slot).
//
//edvet:hotpath
func (m *LMAC) Delay(x opt.Vector) float64 {
	frame := x[0] * x[1]
	return float64(m.env.Rings.Depth) * (frame/2 + m.tData + (m.attempts-1)*frame)
}

// String returns a short human-readable description.
func (m *LMAC) String() string {
	return fmt.Sprintf("lmac(D=%d,C=%d)", m.env.Rings.Depth, m.env.Rings.Density)
}
