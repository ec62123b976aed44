package macmodel

import (
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func newSCPMAC(t *testing.T) *SCPMAC {
	t.Helper()
	m, err := NewSCPMAC(Default())
	if err != nil {
		t.Fatalf("NewSCPMAC: %v", err)
	}
	return m
}

func TestSCPMACCheaperTxThanXMAC(t *testing.T) {
	// Synchronized polling's raison d'être: the per-packet transmit cost
	// must not scale with the poll period, unlike X-MAC's strobe train.
	env := Default()
	scp, err := NewSCPMAC(env)
	if err != nil {
		t.Fatalf("NewSCPMAC: %v", err)
	}
	xmac, err := NewXMAC(env)
	if err != nil {
		t.Fatalf("NewXMAC: %v", err)
	}
	for _, period := range []float64{0.5, 1.0, 2.0, 4.0} {
		x := opt.Vector{period}
		if scp.EnergyAt(x, 1).Tx >= xmac.EnergyAt(x, 1).Tx {
			t.Errorf("period %v: scpmac tx %v should undercut xmac tx %v",
				period, scp.EnergyAt(x, 1).Tx, xmac.EnergyAt(x, 1).Tx)
		}
	}
	// And the tx component is flat in the poll period.
	tx1 := scp.EnergyAt(opt.Vector{0.5}, 1).Tx
	tx2 := scp.EnergyAt(opt.Vector{4.0}, 1).Tx
	if math.Abs(tx1-tx2) > 1e-12 {
		t.Errorf("scpmac tx should be period-independent: %v vs %v", tx1, tx2)
	}
}

func TestSCPMACPaysSyncInstead(t *testing.T) {
	m := newSCPMAC(t)
	c := m.EnergyAt(opt.Vector{1.0}, 1)
	if c.SyncTx <= 0 || c.SyncRx <= 0 {
		t.Errorf("scheduled polling must pay sync traffic, got stx=%v srx=%v", c.SyncTx, c.SyncRx)
	}
	if c.CarrierSense <= 0 {
		t.Error("poll cost missing")
	}
}

func TestSCPMACDelayLinearInPeriod(t *testing.T) {
	m := newSCPMAC(t)
	d := float64(m.env.Rings.Depth)
	l1 := m.Delay(opt.Vector{1.0})
	l2 := m.Delay(opt.Vector{3.0})
	if got, want := l2-l1, d; math.Abs(got-want) > 1e-9 {
		t.Errorf("delay slope over 2 s of period = %v, want %v", got, want)
	}
}

func TestSCPMACBeatsXMACAtLongPeriods(t *testing.T) {
	// At ultra-low duty cycles (long periods) SCP-MAC's total energy
	// must undercut X-MAC's at the same period: that is the SenSys 2006
	// result the related work cites.
	env := Default()
	scp, err := NewSCPMAC(env)
	if err != nil {
		t.Fatalf("NewSCPMAC: %v", err)
	}
	xmac, err := NewXMAC(env)
	if err != nil {
		t.Fatalf("NewXMAC: %v", err)
	}
	x := opt.Vector{4.0}
	if scp.Energy(x) >= xmac.Energy(x) {
		t.Errorf("at a 4 s period scpmac %v should undercut xmac %v", scp.Energy(x), xmac.Energy(x))
	}
}

func TestSCPMACToneFloor(t *testing.T) {
	m := newSCPMAC(t)
	if tone := m.toneTime(); tone < m.env.Radio.CCA {
		t.Errorf("tone %v shorter than a CCA — undetectable", tone)
	}
}

func TestSCPMACCapacityConstraint(t *testing.T) {
	env := Default()
	env.SampleRate = 0.5
	m, err := NewSCPMAC(env)
	if err != nil {
		t.Fatalf("NewSCPMAC: %v", err)
	}
	cs := m.Structural()
	if len(cs) != 1 {
		t.Fatalf("want 1 structural constraint, got %d", len(cs))
	}
	if v := cs[0].F(opt.Vector{10}); v <= 0 {
		t.Errorf("capacity not violated at 0.5 pkt/s with a 10 s period: %v", v)
	}
	if v := cs[0].F(opt.Vector{0.05}); v > 0 {
		t.Errorf("capacity violated at a 50 ms period: %v", v)
	}
}
