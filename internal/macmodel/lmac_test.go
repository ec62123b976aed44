package macmodel

import (
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func newLMAC(t *testing.T) *LMAC {
	t.Helper()
	m, err := NewLMAC(Default())
	if err != nil {
		t.Fatalf("NewLMAC: %v", err)
	}
	return m
}

func TestLMACDelayProportionalToFrame(t *testing.T) {
	m := newLMAC(t)
	depth := float64(m.env.Rings.Depth)
	n, ts := 16.0, 0.05
	want := depth * (n*ts/2 + m.tData)
	if got := m.Delay(opt.Vector{n, ts}); math.Abs(got-want) > 1e-12 {
		t.Errorf("Delay = %v, want %v", got, want)
	}
}

func TestLMACEnergyDecreasingInSlotLength(t *testing.T) {
	m := newLMAC(t)
	n := m.Bounds().Lo[0]
	prev := math.Inf(1)
	for _, ts := range []float64{0.005, 0.01, 0.05, 0.1, 0.3, 0.5} {
		e := m.Energy(opt.Vector{n, ts})
		if e >= prev {
			t.Errorf("energy %v at tslot=%v not below previous %v: padding should save energy", e, ts, prev)
		}
		prev = e
	}
}

func TestLMACControlTrackingDominates(t *testing.T) {
	m := newLMAC(t)
	c := m.EnergyAt(opt.Vector{16, 0.05}, 1)
	active := c.Total() - c.Sleep
	if c.SyncRx < 0.8*active {
		t.Errorf("control tracking (%v J) should dominate the active energy (%v J)", c.SyncRx, active)
	}
	if c.CarrierSense != 0 || c.Overhear != 0 {
		t.Errorf("TDMA LMAC has no CCA polling or overhearing, got cs=%v ovr=%v", c.CarrierSense, c.Overhear)
	}
	if c.SyncTx <= 0 {
		t.Error("owner control beacon missing")
	}
}

func TestLMACMostExpensiveAtEqualDelay(t *testing.T) {
	// At a matched 2-second end-to-end delay LMAC must cost more than
	// X-MAC: the paper's headline protocol ordering.
	env := Default()
	lmac, err := NewLMAC(env)
	if err != nil {
		t.Fatalf("NewLMAC: %v", err)
	}
	xmac, err := NewXMAC(env)
	if err != nil {
		t.Fatalf("NewXMAC: %v", err)
	}
	depth := float64(env.Rings.Depth)
	// Configurations hitting L = 2 s.
	n := lmac.Bounds().Lo[0]
	tslot := (2/depth - lmac.tData) * 2 / n
	lx := opt.Vector{n, tslot}
	tw := 2 * (2/depth - xmac.tShake)
	xx := opt.Vector{tw}
	if math.Abs(lmac.Delay(lx)-2) > 1e-9 || math.Abs(xmac.Delay(xx)-2) > 1e-9 {
		t.Fatalf("setup: delays %v, %v, want 2", lmac.Delay(lx), xmac.Delay(xx))
	}
	if lmac.Energy(lx) <= xmac.Energy(xx) {
		t.Errorf("LMAC energy %v should exceed X-MAC energy %v at equal delay", lmac.Energy(lx), xmac.Energy(xx))
	}
}

func TestLMACCapacityConstraint(t *testing.T) {
	m := newLMAC(t)
	cs := m.Structural()
	if len(cs) == 0 {
		t.Fatal("missing structural constraints")
	}
	// With the default tiny sampling rate even huge frames are fine.
	if v := cs[0].F(opt.Vector{128, 0.5}); v > 0 {
		t.Errorf("capacity violated in low-rate default scenario: %v", v)
	}
	// A high-rate environment must trip it.
	env := Default()
	env.SampleRate = 0.5
	hot, err := NewLMAC(env)
	if err != nil {
		t.Fatalf("NewLMAC: %v", err)
	}
	if v := hot.Structural()[0].F(opt.Vector{128, 0.5}); v <= 0 {
		t.Errorf("capacity not violated at 0.5 pkt/s with a 64 s frame: %v", v)
	}
}

func TestLMACMinSlotsScalesWithDensity(t *testing.T) {
	low := Default()
	low.Rings.Density = 3
	high := Default()
	high.Rings.Density = 12
	ml, err := NewLMAC(low)
	if err != nil {
		t.Fatalf("NewLMAC: %v", err)
	}
	mh, err := NewLMAC(high)
	if err != nil {
		t.Fatalf("NewLMAC: %v", err)
	}
	if ml.Bounds().Lo[0] >= mh.Bounds().Lo[0] {
		t.Errorf("denser networks need more slots: %v vs %v", ml.Bounds().Lo[0], mh.Bounds().Lo[0])
	}
}

func TestLMACRejectsExtremeDensity(t *testing.T) {
	env := Default()
	env.Rings.Density = 100 // needs >128 slots
	if _, err := NewLMAC(env); err == nil {
		t.Error("NewLMAC should reject densities whose schedule exceeds the slot cap")
	}
}
