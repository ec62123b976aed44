package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/edmac-project/edmac/internal/topology"
)

func ringModel(depth, density int) topology.RingModel {
	return topology.RingModel{Depth: depth, Density: density}
}

func TestRingFlowsKnownValues(t *testing.T) {
	f := RingFlows{Rings: ringModel(5, 6), Rate: 0.01}
	// Ring 1 node: relays 24 descendants plus itself.
	if got, want := f.Out(1), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("Out(1) = %v, want %v", got, want)
	}
	if got, want := f.In(1), 0.24; math.Abs(got-want) > 1e-12 {
		t.Errorf("In(1) = %v, want %v", got, want)
	}
	// Outer ring: only its own samples.
	if got, want := f.Out(5), 0.01; math.Abs(got-want) > 1e-12 {
		t.Errorf("Out(5) = %v, want %v", got, want)
	}
	if got := f.In(5); got != 0 {
		t.Errorf("In(5) = %v, want 0", got)
	}
	// Out of range.
	if got := f.Out(0); got != 0 {
		t.Errorf("Out(0) = %v, want 0", got)
	}
	if got := f.Out(6); got != 0 {
		t.Errorf("Out(6) = %v, want 0", got)
	}
}

// TestRingFlowConservation: per ring, population × per-node output equals
// the total sampling of that ring and everything beyond it.
func TestRingFlowConservation(t *testing.T) {
	f := func(depth, density uint8, rateMilli uint16) bool {
		m := ringModel(int(depth%12)+1, int(density%12)+1)
		rate := (float64(rateMilli%999) + 1) / 1000
		fl := RingFlows{Rings: m, Rate: rate}
		for d := 1; d <= m.Depth; d++ {
			sources := 0
			for k := d; k <= m.Depth; k++ {
				sources += m.NodesAt(k)
			}
			got := fl.Out(d) * float64(m.NodesAt(d))
			want := rate * float64(sources)
			if math.Abs(got-want) > 1e-6*want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingFlowsMonotoneInward(t *testing.T) {
	fl := RingFlows{Rings: ringModel(8, 4), Rate: 0.02}
	for d := 1; d < 8; d++ {
		if fl.Out(d) < fl.Out(d+1) {
			t.Errorf("Out(%d)=%v < Out(%d)=%v: load must grow toward the sink",
				d, fl.Out(d), d+1, fl.Out(d+1))
		}
	}
	if fl.Bottleneck() != 1 {
		t.Errorf("Bottleneck() = %d, want 1", fl.Bottleneck())
	}
}

func TestBackgroundNonNegative(t *testing.T) {
	f := func(depth, density uint8) bool {
		m := ringModel(int(depth%12)+1, int(density%12)+1)
		fl := RingFlows{Rings: m, Rate: 0.01}
		for d := 0; d <= m.Depth+1; d++ {
			if fl.Background(d) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRingApproximationTracksExact compares the analytic ring rates with
// exact rates on the deterministic ring placement; the inner-ring load
// must agree within a modest factor (the approximation is coarse by
// construction, but must not be wildly off).
func TestRingApproximationTracksExact(t *testing.T) {
	m := ringModel(4, 5)
	net, err := topology.Rings(m)
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	fs := 0.01
	// A node's exact transmit rate is its subtree's load: each node adds
	// fs to itself and to every ancestor.
	exact := make([]float64, net.N())
	for i := 1; i < net.N(); i++ {
		for id := topology.NodeID(i); id > 0; id = net.Parent(id) {
			exact[id] += fs
		}
	}
	approx := RingFlows{Rings: m, Rate: fs}
	for d := 1; d <= m.Depth; d++ {
		ids := net.NodesAtRing(d)
		var mean float64
		for _, id := range ids {
			mean += exact[id]
		}
		mean /= float64(len(ids))
		want := approx.Out(d)
		if mean > want*2.5 || mean < want/2.5 {
			t.Errorf("ring %d: exact mean out %v vs analytic %v — off by more than 2.5x", d, mean, want)
		}
	}
}
