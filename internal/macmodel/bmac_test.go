package macmodel

import (
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

func newBMAC(t *testing.T) *BMAC {
	t.Helper()
	m, err := NewBMAC(Default())
	if err != nil {
		t.Fatalf("NewBMAC: %v", err)
	}
	return m
}

func TestBMACCostlierThanXMAC(t *testing.T) {
	// The full-length address-free preamble must make B-MAC strictly
	// worse than X-MAC at the same wakeup interval — the reason X-MAC
	// exists, and the framework-generality ablation of the repo.
	env := Default()
	bmac, err := NewBMAC(env)
	if err != nil {
		t.Fatalf("NewBMAC: %v", err)
	}
	xmac, err := NewXMAC(env)
	if err != nil {
		t.Fatalf("NewXMAC: %v", err)
	}
	for _, tw := range []float64{0.1, 0.5, 1.0, 2.0} {
		x := opt.Vector{tw}
		if bmac.Energy(x) <= xmac.Energy(x) {
			t.Errorf("Tw=%v: B-MAC energy %v should exceed X-MAC energy %v", tw, bmac.Energy(x), xmac.Energy(x))
		}
		if bmac.Delay(x) <= xmac.Delay(x) {
			t.Errorf("Tw=%v: B-MAC delay %v should exceed X-MAC delay %v", tw, bmac.Delay(x), xmac.Delay(x))
		}
	}
}

func TestBMACOverhearingSubstantial(t *testing.T) {
	m := newBMAC(t)
	c := m.EnergyAt(opt.Vector{1.0}, 1)
	if c.Overhear <= 0 {
		t.Fatal("B-MAC overhearing missing")
	}
	// Address-free preambles: overhearers pay about as much as receivers
	// per packet, and background traffic exceeds addressed traffic, so
	// the overhear component must beat the rx component.
	if c.Overhear <= c.Rx {
		t.Errorf("overhear %v should exceed rx %v under background-heavy traffic", c.Overhear, c.Rx)
	}
}

func TestBMACDelayIncludesFullPreamble(t *testing.T) {
	m := newBMAC(t)
	depth := float64(m.env.Rings.Depth)
	tw := 0.8
	l := m.Delay(opt.Vector{tw})
	if l < depth*tw {
		t.Errorf("delay %v cannot undercut D×Tw = %v: each hop sends the full preamble", l, depth*tw)
	}
}
