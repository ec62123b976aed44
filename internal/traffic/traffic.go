// Package traffic derives the per-node traffic rates that drive the
// analytic MAC models: how many packets per second a node generates,
// relays, receives, and overhears, given periodic sampling at every node
// and convergecast routing toward the sink.
//
// Two variants are provided. RingFlows is the closed-form ring
// approximation of Langendoen & Meier that the paper's models are built
// on; NodeFlows computes the exact per-node rates on an explicit
// topology.Network, which the simulator and validation tests use.
package traffic

import (
	"fmt"

	"github.com/edmac-project/edmac/internal/topology"
)

// RingFlows yields the analytic per-node traffic rates of the ring model:
// every node samples at Rate packets per second and forwards its routing
// descendants' packets toward the sink.
type RingFlows struct {
	// Rings is the analytic topology.
	Rings topology.RingModel
	// Rate is the application sampling rate Fs in packets per second per
	// node.
	Rate float64
}

// Out returns the transmit rate of a ring-d node in packets per second:
// its own samples plus everything it relays.
func (f RingFlows) Out(d int) float64 {
	if d < 1 || d > f.Rings.Depth {
		return 0
	}
	return f.Rate * (1 + f.Rings.Descendants(d))
}

// In returns the receive rate of a ring-d node in packets per second:
// the traffic arriving from its routing children.
func (f RingFlows) In(d int) float64 {
	if d < 1 || d > f.Rings.Depth {
		return 0
	}
	return f.Out(d) - f.Rate
}

// Background returns the overheard rate of a ring-d node in packets per
// second: transmissions within radio range that are not addressed to it.
// The ring approximation takes the node's C neighbours to carry the same
// load as the node itself and subtracts the packets the node must
// actually receive.
func (f RingFlows) Background(d int) float64 {
	if d < 1 || d > f.Rings.Depth {
		return 0
	}
	b := float64(f.Rings.Density)*f.Out(d) - f.In(d)
	if b < 0 {
		return 0
	}
	return b
}

// Bottleneck returns the ring with the highest transmit load, which under
// convergecast is always ring 1.
func (f RingFlows) Bottleneck() int { return 1 }

// MeanNonSinkRate averages a MeanRates vector over the non-sink nodes —
// the one definition of "mean per-node rate" the analytic bridge, the
// adaptation controller and the suite all share.
func MeanNonSinkRate(rates []float64) float64 {
	if len(rates) < 2 {
		return 0
	}
	sum := 0.0
	for _, r := range rates[1:] {
		sum += r
	}
	return sum / float64(len(rates)-1)
}

// NodeFlows holds exact per-node rates for an explicit network, indexed
// by topology.NodeID. The sink (ID 0) neither samples nor transmits.
type NodeFlows struct {
	// Out[i] is node i's transmit rate in packets per second.
	Out []float64
	// In[i] is node i's receive rate (packets addressed to it).
	In []float64
	// Background[i] is node i's overheard rate.
	Background []float64
}

// ComputeRates derives exact per-node flow rates on net when node i
// generates at rates[i] packets per second (indexed by NodeID, sink rate
// ignored) — the general form every traffic Model reduces to via
// MeanRates. Conservation holds by construction: the sink's In rate
// equals the sum of all generation rates.
func ComputeRates(net *topology.Network, rates []float64) (NodeFlows, error) {
	if net == nil {
		return NodeFlows{}, fmt.Errorf("traffic: nil network")
	}
	n := net.N()
	if len(rates) != n {
		return NodeFlows{}, fmt.Errorf("traffic: %d rates for %d nodes", len(rates), n)
	}
	flows := NodeFlows{
		Out:        make([]float64, n),
		In:         make([]float64, n),
		Background: make([]float64, n),
	}
	total := 0.0
	for i := 1; i < n; i++ {
		if rates[i] < 0 {
			return NodeFlows{}, fmt.Errorf("traffic: node %d rate %v must be non-negative", i, rates[i])
		}
		flows.Out[i] = rates[i]
		total += rates[i]
	}
	// Accumulate subtree loads from the leaves inward: a node transmits
	// its own samples plus everything its routing children hand it.
	for d := net.Depth(); d >= 1; d-- {
		for _, id := range net.NodesAtRing(d) {
			if p := net.Parent(id); p > 0 {
				flows.Out[p] += flows.Out[id]
			}
		}
	}
	for i := 1; i < n; i++ {
		flows.In[i] = flows.Out[i] - rates[i]
	}
	// The sink receives everything and sends nothing.
	flows.In[0] = total
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		heard := 0.0
		for _, nb := range net.Neighbors(id) {
			heard += flows.Out[nb]
		}
		b := heard - flows.In[i]
		if b < 0 {
			b = 0
		}
		flows.Background[i] = b
	}
	return flows, nil
}
