package macmodel

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/traffic"
)

// DMAC frame-length bounds in seconds and contention/sync constants.
const (
	dmacFrameMin = 0.1
	dmacFrameMax = 10.0
	// dmacSlotMax caps the slot length; slots just need to fit one
	// data exchange plus contention.
	dmacSlotMax = 0.02
	// dmacCWSlots is the number of CCA-sized contention slots senders
	// back off over inside a transmission slot.
	dmacCWSlots = 8
	// dmacSyncPeriod is the schedule-beacon period in seconds.
	dmacSyncPeriod = 30.0
	// dmacCapacity caps the expected packets per frame per node so one
	// transmission slot per frame suffices.
	dmacCapacity = 0.9
)

// DMAC is the analytic model of DMAC (Lu, Krishnamachari, Raghavendra,
// WCMC 2007): a slotted, contention-based protocol with a staggered
// wakeup ladder tailored to data-gathering trees. A node at depth d
// wakes d slots after the frame epoch for one receive slot, then one
// transmit slot, so data flows to the sink in a single wave.
//
// Parameter vector: X = (T, mu) — frame length and slot length.
type DMAC struct {
	env      Env
	flows    traffic.RingFlows
	attempts float64 // expected tx attempts per hop (1 on perfect links)

	tData float64
	tAck  float64
	tSync float64
	tHdr  float64
	tCW   float64 // full contention window duration
	muMin float64 // minimum slot: startup + CW + data + turnaround + ACK

	out1       float64 // ring-1 transmit rate, attempts included
	syncTime   float64 // per-window time spent sending (and hearing) beacons
	syncTx     float64 // per-window beacon transmit energy
	syncRx     float64 // per-window beacon receive energy
	bottleneck ringTerms
}

var _ Model = (*DMAC)(nil)

// NewDMAC builds the DMAC model for env.
func NewDMAC(env Env) (*DMAC, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	r := env.Radio
	m := &DMAC{
		env:      env,
		flows:    env.Flows(),
		attempts: env.Attempts(),
		tData:    env.DataAirtime(),
		tAck:     env.AckAirtime(),
		tSync:    env.SyncAirtime(),
		tHdr:     env.HeaderAirtime(),
		tCW:      dmacCWSlots * r.CCA,
	}
	m.muMin = r.Startup + m.tCW + m.tData + r.Turnaround + m.tAck
	if m.muMin >= dmacSlotMax {
		return nil, fmt.Errorf("macmodel: dmac minimum slot %v s exceeds the slot cap %v s (payload too large)", m.muMin, dmacSlotMax)
	}
	m.out1 = m.attempts * m.flows.Out(1)
	// Schedule synchronization beacons.
	m.syncTime = env.Window / dmacSyncPeriod * m.tSync
	m.syncTx = m.syncTime * r.PowerTx
	m.syncRx = m.syncTime * r.PowerRx
	m.bottleneck = m.ringTerms(m.flows.Bottleneck())
	if err := validateSpecs(m.Name(), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements Model.
func (m *DMAC) Name() string { return "dmac" }

// Params implements Model.
func (m *DMAC) Params() []ParamSpec {
	return []ParamSpec{
		{Name: "frame-length", Unit: "s", Min: dmacFrameMin, Max: dmacFrameMax},
		{Name: "slot-length", Unit: "s", Min: m.muMin, Max: dmacSlotMax},
	}
}

// Bounds implements Model.
func (m *DMAC) Bounds() opt.Bounds { return boundsOf(m.Params()) }

// Structural implements Model: the staggered ladder of D+1 slots must
// fit inside the frame, and the per-frame load must stay below one
// packet per transmission slot.
func (m *DMAC) Structural() []opt.Constraint {
	depth := float64(m.env.Rings.Depth)
	return []opt.Constraint{
		{
			F: func(x opt.Vector) float64 {
				return (depth+1)*x[1] - x[0]
			},
		},
		{
			F: func(x opt.Vector) float64 {
				return m.out1*x[0] - dmacCapacity
			},
		},
	}
}

// ringTerms returns the ring's parameter-independent energy terms: with
// the slot schedule fixed, only the receive-slot baseline depends on the
// frame and slot lengths.
func (m *DMAC) ringTerms(ring int) ringTerms {
	r := &m.env.Radio
	t := windowLoad(m.env, m.flows, m.attempts, ring)

	// Transmit (in the parent's receive slot): wake, contend for half
	// the window on average, send data, turn around, collect the ACK.
	txTimePerPkt := r.Startup + m.tCW/2 + m.tData + r.Turnaround + m.tAck
	txPerPkt := (r.Startup+m.tCW/2)*r.PowerListen + m.tData*r.PowerTx + r.Turnaround*r.PowerListen + m.tAck*r.PowerRx
	t.tx = t.wOut * txPerPkt
	t.txTime = t.wOut * txTimePerPkt

	// Receive: the receive-slot listening is already in the baseline;
	// reception charges the marginal cost of decoding plus the ACK reply.
	rxPerPkt := m.tData*(r.PowerRx-r.PowerListen) + r.Turnaround*r.PowerListen + m.tAck*r.PowerTx
	if rxPerPkt < 0 {
		rxPerPkt = 0
	}
	rxTimePerPkt := r.Turnaround + m.tAck
	t.rx = t.wIn * rxPerPkt
	t.rxTime = t.wIn * rxTimePerPkt

	// Overhearing: only same-ladder neighbours are awake concurrently;
	// they decode a header and drop. The 0.5 factor reflects the partial
	// schedule overlap of the staggered ladder.
	t.ovrTime = t.wBg * 0.5 * m.tHdr
	t.ovr = t.ovrTime * r.PowerRx
	return t
}

// EnergyAt implements Model.
//
//edvet:hotpath
func (m *DMAC) EnergyAt(x opt.Vector, ring int) Components {
	t := m.ringTerms(ring)
	cs, sleep := m.energy(x[0], x[1], &t)
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

// energy returns the schedule-dependent components of a node with ring
// terms t at frame length frame and slot length mu: receive-slot
// listening and sleep energy.
//
//edvet:hotpath
func (m *DMAC) energy(frame, mu float64, t *ringTerms) (cs, sleep float64) {
	r := &m.env.Radio
	w := m.env.Window

	// Baseline: one receive slot per frame, listened end to end.
	csTime := w / frame * (r.Startup + mu)
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
func (m *DMAC) Energy(x opt.Vector) float64 {
	t := &m.bottleneck
	cs, sleep := m.energy(x[0], x[1], t)
	return total(cs, t.tx, t.rx, t.ovr, m.syncTx, m.syncRx, sleep)
}

// Delay implements Model: a packet waits half a frame on average for its
// level's next transmission slot, then rides the staggered wave one slot
// per hop. On lossy links each failed hop exchange defers the packet to
// a later frame, so every expected extra attempt costs a full frame.
//
//edvet:hotpath
func (m *DMAC) Delay(x opt.Vector) float64 {
	frame, mu := x[0], x[1]
	return frame/2 + float64(m.env.Rings.Depth)*(mu+(m.attempts-1)*frame)
}

// String returns a short human-readable description.
func (m *DMAC) String() string {
	return fmt.Sprintf("dmac(D=%d,C=%d)", m.env.Rings.Depth, m.env.Rings.Density)
}
