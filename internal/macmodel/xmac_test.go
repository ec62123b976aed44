package macmodel

import (
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func newXMAC(t *testing.T) *XMAC {
	t.Helper()
	m, err := NewXMAC(Default())
	if err != nil {
		t.Fatalf("NewXMAC: %v", err)
	}
	return m
}

func TestXMACDelayLinearInWakeup(t *testing.T) {
	m := newXMAC(t)
	d := float64(m.env.Rings.Depth)
	l1 := m.Delay(opt.Vector{1.0})
	l2 := m.Delay(opt.Vector{2.0})
	// dL/dTw = D/2.
	if got, want := l2-l1, d/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("delay slope = %v, want %v", got, want)
	}
	// Delay at Tw has the closed form D*(Tw/2 + handshake).
	if l1 <= d/2 {
		t.Errorf("Delay(1) = %v must exceed the pure sleep delay %v", l1, d/2)
	}
}

func TestXMACEnergyIsUShaped(t *testing.T) {
	m := newXMAC(t)
	b := m.Bounds()
	eLo := m.Energy(opt.Vector{b.Lo[0]})
	eHi := m.Energy(opt.Vector{b.Hi[0]})
	// Scan for the interior minimum.
	best, bestTw := math.Inf(1), 0.0
	for tw := b.Lo[0]; tw <= b.Hi[0]; tw += 0.01 {
		if e := m.Energy(opt.Vector{tw}); e < best {
			best, bestTw = e, tw
		}
	}
	if !(best < eLo && best < eHi) {
		t.Fatalf("energy not U-shaped: min %v, edges %v / %v", best, eLo, eHi)
	}
	if bestTw <= b.Lo[0]+0.05 || bestTw >= b.Hi[0]-0.05 {
		t.Errorf("energy minimum at boundary (%v); want interior optimum", bestTw)
	}
	// The analytic optimum of a/Tw + b*Tw sits near sqrt(a/b); check the
	// scan agrees within 20%.
	r := m.env.Radio
	a := m.tPoll * r.PowerListen
	strobeDuty := m.tStrobe / m.tPeriod
	strobePower := strobeDuty*r.PowerTx + (1-strobeDuty)*r.PowerListen
	bCoef := m.flows.Out(1) * strobePower / 2
	want := math.Sqrt(a / bCoef)
	if math.Abs(bestTw-want)/want > 0.2 {
		t.Errorf("energy minimum at Tw=%v, analytic prediction %v", bestTw, want)
	}
}

func TestXMACPollCostDominatesAtShortWakeup(t *testing.T) {
	m := newXMAC(t)
	c := m.EnergyAt(opt.Vector{m.Bounds().Lo[0]}, 1)
	if c.CarrierSense <= c.Tx {
		t.Errorf("at the shortest wakeup interval polling (%v J) should dominate tx (%v J)", c.CarrierSense, c.Tx)
	}
}

func TestXMACStrobingDominatesAtLongWakeup(t *testing.T) {
	m := newXMAC(t)
	c := m.EnergyAt(opt.Vector{m.Bounds().Hi[0]}, 1)
	if c.Tx <= c.CarrierSense {
		t.Errorf("at the longest wakeup interval strobing (%v J) should dominate polling (%v J)", c.Tx, c.CarrierSense)
	}
}

func TestXMACNoSyncTraffic(t *testing.T) {
	m := newXMAC(t)
	c := m.EnergyAt(opt.Vector{0.5}, 1)
	if c.SyncTx != 0 || c.SyncRx != 0 {
		t.Errorf("asynchronous X-MAC must have no sync components, got stx=%v srx=%v", c.SyncTx, c.SyncRx)
	}
}

func TestXMACOuterRingCheaper(t *testing.T) {
	m := newXMAC(t)
	x := opt.Vector{0.5}
	inner := m.EnergyAt(x, 1)
	outer := m.EnergyAt(x, m.env.Rings.Depth)
	if outer.Tx >= inner.Tx {
		t.Errorf("outer ring tx %v should be below inner ring tx %v", outer.Tx, inner.Tx)
	}
	if outer.Rx != 0 {
		t.Errorf("outermost ring receives nothing, got rx=%v", outer.Rx)
	}
	// Polling cost is position-independent.
	if outer.CarrierSense != inner.CarrierSense {
		t.Errorf("cs differs across rings: %v vs %v", outer.CarrierSense, inner.CarrierSense)
	}
}

func TestXMACUnsaturatedInDefaultScenario(t *testing.T) {
	m := newXMAC(t)
	for i, c := range m.Structural() {
		if v := c.F(opt.Vector{1.0}); v > 0 {
			t.Errorf("constraint %d violated at Tw=1s in the default low-rate scenario: %v", i, v)
		}
	}
}

func TestXMACEnergyInPaperDecade(t *testing.T) {
	// The default calibration must land the X-MAC figure axis in the
	// paper's decade: minimum energy a few mJ, max-speed energy ~0.04 J.
	m := newXMAC(t)
	eFast := m.Energy(m.Bounds().Lo)
	if eFast < 0.01 || eFast > 0.1 {
		t.Errorf("fastest-config energy %v J out of the expected [0.01, 0.1] band", eFast)
	}
	best := math.Inf(1)
	for tw := 0.064; tw <= 5; tw += 0.01 {
		if e := m.Energy(opt.Vector{tw}); e < best {
			best = e
		}
	}
	if best < 5e-4 || best > 0.02 {
		t.Errorf("optimal energy %v J out of the expected [0.0005, 0.02] band", best)
	}
}
