// Package traffic derives the per-node traffic rates that drive the
// analytic MAC models: how many packets per second a node generates,
// relays, receives, and overhears, given periodic sampling at every node
// and convergecast routing toward the sink.
//
// RingFlows is the closed-form ring approximation of Langendoen & Meier
// that the paper's models are built on. The traffic Models describe
// workloads on an explicit topology.Network: the simulator replays their
// arrivals, and their mean rate over the non-sink nodes drives the
// equivalent ring.
package traffic

import "github.com/edmac-project/edmac/internal/topology"

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
