package macmodel

import (
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func newDMAC(t *testing.T) *DMAC {
	t.Helper()
	m, err := NewDMAC(Default())
	if err != nil {
		t.Fatalf("NewDMAC: %v", err)
	}
	return m
}

func TestDMACDelayForm(t *testing.T) {
	m := newDMAC(t)
	depth := float64(m.env.Rings.Depth)
	mu := m.Bounds().Lo[1]
	if got, want := m.Delay(opt.Vector{2.0, mu}), 1.0+depth*mu; math.Abs(got-want) > 1e-12 {
		t.Errorf("Delay(T=2) = %v, want %v", got, want)
	}
	// Delay is increasing in both parameters.
	if m.Delay(opt.Vector{4, mu}) <= m.Delay(opt.Vector{2, mu}) {
		t.Error("delay must grow with frame length")
	}
	if m.Delay(opt.Vector{4, 2 * mu}) <= m.Delay(opt.Vector{4, mu}) {
		t.Error("delay must grow with slot length")
	}
}

func TestDMACEnergyDecreasingInFrame(t *testing.T) {
	m := newDMAC(t)
	mu := m.Bounds().Lo[1]
	prev := math.Inf(1)
	for _, frame := range []float64{0.2, 0.5, 1, 2, 5, 10} {
		e := m.Energy(opt.Vector{frame, mu})
		if e >= prev {
			t.Errorf("energy %v at T=%v not below %v at the previous shorter frame", e, frame, prev)
		}
		prev = e
	}
}

func TestDMACEnergyIncreasingInSlot(t *testing.T) {
	m := newDMAC(t)
	b := m.Bounds()
	e1 := m.Energy(opt.Vector{2, b.Lo[1]})
	e2 := m.Energy(opt.Vector{2, b.Hi[1]})
	if e2 <= e1 {
		t.Errorf("longer slots must cost more idle listening: %v vs %v", e1, e2)
	}
}

func TestDMACLadderConstraint(t *testing.T) {
	m := newDMAC(t)
	mu := m.Bounds().Lo[1]
	depth := float64(m.env.Rings.Depth)
	ladder := m.Structural()[0]
	// A frame shorter than (D+1) slots must violate.
	tooShort := opt.Vector{(depth + 1) * mu * 0.5, mu}
	if v := ladder.F(tooShort); v <= 0 {
		t.Errorf("ladder constraint not violated for frame %v: %v", tooShort[0], v)
	}
	ok := opt.Vector{(depth + 1) * mu * 2, mu}
	if v := ladder.F(ok); v > 0 {
		t.Errorf("ladder constraint violated for ample frame: %v", v)
	}
}

func TestDMACSyncComponentsPresent(t *testing.T) {
	m := newDMAC(t)
	c := m.EnergyAt(opt.Vector{2, m.Bounds().Lo[1]}, 1)
	if c.SyncTx <= 0 || c.SyncRx <= 0 {
		t.Errorf("slotted DMAC must pay sync traffic, got stx=%v srx=%v", c.SyncTx, c.SyncRx)
	}
	if c.CarrierSense <= 0 {
		t.Error("receive-slot baseline listening missing")
	}
}

func TestDMACRejectsOversizedPayload(t *testing.T) {
	env := Default()
	env.Payload = 4096 // slot cannot fit the frame airtime
	if _, err := NewDMAC(env); err == nil {
		t.Error("NewDMAC should reject payloads whose slot exceeds the cap")
	}
}

func TestDMACSaturationNearFiveSeconds(t *testing.T) {
	// With Tmax=10 s the delay-optimal energy configuration pins
	// L(Tmax) just above 5 s — reproducing the paper's observation that
	// DMAC's trade-off saturates for Lmax >= 5 s.
	m := newDMAC(t)
	b := m.Bounds()
	l := m.Delay(opt.Vector{b.Hi[0], b.Lo[1]})
	if l < 4.9 || l > 5.3 {
		t.Errorf("delay at the longest frame = %v s, want just above 5 s", l)
	}
}
