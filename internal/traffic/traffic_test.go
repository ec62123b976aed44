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

func TestComputeOnLine(t *testing.T) {
	net, err := topology.Line(4, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	fs := 0.1
	flows, err := ComputeRates(net, uniformRates(net, fs))
	if err != nil {
		t.Fatalf("ComputeRates: %v", err)
	}
	// Chain 0(sink)-1-2-3-4: node 1 forwards for 2,3,4 plus itself.
	wantOut := []float64{0, 0.4, 0.3, 0.2, 0.1}
	for i, want := range wantOut {
		if math.Abs(flows.Out[i]-want) > 1e-12 {
			t.Errorf("Out[%d] = %v, want %v", i, flows.Out[i], want)
		}
	}
	if math.Abs(flows.In[0]-0.4) > 1e-12 {
		t.Errorf("sink In = %v, want 0.4", flows.In[0])
	}
	// Node 2 hears nodes 1 and 3 (out: 0.4 and 0.2) and must receive 0.2
	// of it (from 3), so it overhears 0.4.
	if math.Abs(flows.Background[2]-0.4) > 1e-12 {
		t.Errorf("Background[2] = %v, want 0.4", flows.Background[2])
	}
}

func TestComputeConservation(t *testing.T) {
	net, err := topology.Rings(topology.RingModel{Depth: 3, Density: 4})
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	fs := 1.0 / 300
	flows, err := ComputeRates(net, uniformRates(net, fs))
	if err != nil {
		t.Fatalf("ComputeRates: %v", err)
	}
	// Sink intake equals total generation.
	want := fs * float64(net.N()-1)
	if math.Abs(flows.In[0]-want) > 1e-9 {
		t.Errorf("sink In = %v, want %v", flows.In[0], want)
	}
	// Each node's output = own sampling + children's outputs.
	for i := 1; i < net.N(); i++ {
		sum := fs
		for c := 1; c < net.N(); c++ {
			if net.Parent(topology.NodeID(c)) == topology.NodeID(i) {
				sum += flows.Out[c]
			}
		}
		if math.Abs(flows.Out[i]-sum) > 1e-9 {
			t.Errorf("node %d: Out=%v, want own+children=%v", i, flows.Out[i], sum)
		}
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
	exact, err := ComputeRates(net, uniformRates(net, fs))
	if err != nil {
		t.Fatalf("ComputeRates: %v", err)
	}
	approx := RingFlows{Rings: m, Rate: fs}
	for d := 1; d <= m.Depth; d++ {
		ids := net.NodesAtRing(d)
		var mean float64
		for _, id := range ids {
			mean += exact.Out[id]
		}
		mean /= float64(len(ids))
		want := approx.Out(d)
		if mean > want*2.5 || mean < want/2.5 {
			t.Errorf("ring %d: exact mean out %v vs analytic %v — off by more than 2.5x", d, mean, want)
		}
	}
}
