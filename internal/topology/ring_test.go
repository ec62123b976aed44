package topology

import (
	"testing"
	"testing/quick"
)

func TestRingModelValidate(t *testing.T) {
	tests := []struct {
		name    string
		m       RingModel
		wantErr bool
	}{
		{name: "ok", m: RingModel{Depth: 5, Density: 6}},
		{name: "min", m: RingModel{Depth: 1, Density: 1}},
		{name: "zero depth", m: RingModel{Depth: 0, Density: 6}, wantErr: true},
		{name: "zero density", m: RingModel{Depth: 5, Density: 0}, wantErr: true},
		{name: "negative", m: RingModel{Depth: -2, Density: -1}, wantErr: true},
	}
	for _, tt := range tests {
		err := tt.m.Validate()
		if (err != nil) != tt.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr=%v", tt.name, err, tt.wantErr)
		}
	}
}

func TestRingModelCounts(t *testing.T) {
	m := RingModel{Depth: 5, Density: 6}
	wantCounts := map[int]int{0: 0, 1: 7, 2: 21, 3: 35, 4: 49, 5: 63, 6: 0}
	for d, want := range wantCounts {
		if got := m.NodesAt(d); got != want {
			t.Errorf("NodesAt(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestRingTotalsMatchSumOfRings(t *testing.T) {
	f := func(depth, density uint8) bool {
		m := RingModel{Depth: int(depth%20) + 1, Density: int(density%20) + 1}
		sum := 0
		for d := 1; d <= m.Depth; d++ {
			sum += m.NodesAt(d)
		}
		return sum == (m.Density+1)*m.Depth*m.Depth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescendants(t *testing.T) {
	m := RingModel{Depth: 5, Density: 6}
	// Ring 1: each of the 7 nodes relays for (25-1)/1 = 24 descendants.
	if got := m.Descendants(1); got != 24 {
		t.Errorf("Descendants(1) = %v, want 24", got)
	}
	// Outermost ring relays nothing.
	if got := m.Descendants(5); got != 0 {
		t.Errorf("Descendants(5) = %v, want 0", got)
	}
	if got := m.Descendants(0); got != 0 {
		t.Errorf("Descendants(0) = %v, want 0", got)
	}
	if got := m.Descendants(6); got != 0 {
		t.Errorf("Descendants(6) = %v, want 0", got)
	}
}

// TestDescendantsConservation checks that descendants per ring-d node
// times the ring population equals the total population beyond ring d.
func TestDescendantsConservation(t *testing.T) {
	f := func(depth, density uint8) bool {
		m := RingModel{Depth: int(depth%15) + 1, Density: int(density%15) + 1}
		for d := 1; d <= m.Depth; d++ {
			outer := 0
			for k := d + 1; k <= m.Depth; k++ {
				outer += m.NodesAt(k)
			}
			got := m.Descendants(d) * float64(m.NodesAt(d))
			if diff := got - float64(outer); diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
