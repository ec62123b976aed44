// Package topology provides the network models the energy-delay framework
// runs on: the analytic ring abstraction of Langendoen & Meier used by the
// closed-form MAC models, and explicit unit-disk-graph networks used by
// the packet-level simulator.
package topology

import "fmt"

// RingModel is the analytic topology of Langendoen & Meier: nodes are
// uniformly scattered with unit-disk neighbourhood density Density (a unit
// disk contains Density+1 nodes) and layered into Depth concentric rings
// around a sink by minimal hop count. Ring d (1-based) contains
// (2d−1)·(Density+1) nodes; all traffic from rings ≥ d funnels through
// ring d.
type RingModel struct {
	// Depth is the number of rings D; the farthest nodes are D hops from
	// the sink.
	Depth int
	// Density is the unit-disk neighbourhood density C: every node has C
	// neighbours on average.
	Density int
}

// Validate reports whether the model parameters are usable.
func (r RingModel) Validate() error {
	if r.Depth < 1 {
		return fmt.Errorf("topology: depth %d must be at least 1", r.Depth)
	}
	if r.Density < 1 {
		return fmt.Errorf("topology: density %d must be at least 1", r.Density)
	}
	return nil
}

// NodesAt returns the number of nodes in ring d, for d in [1, Depth].
// Rings outside that range hold no nodes.
func (r RingModel) NodesAt(d int) int {
	if d < 1 || d > r.Depth {
		return 0
	}
	return (2*d - 1) * (r.Density + 1)
}

// Descendants returns the average number of nodes whose traffic a single
// ring-d node relays (its routing-tree descendants). Ring-D nodes relay
// nothing.
func (r RingModel) Descendants(d int) float64 {
	if d < 1 || d > r.Depth {
		return 0
	}
	dd := float64(d)
	dep := float64(r.Depth)
	return (dep*dep - dd*dd) / (2*dd - 1)
}
