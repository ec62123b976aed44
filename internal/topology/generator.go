package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Generator is a compact parametric description of a network family that
// can be materialized into an explicit Network. Implementations are
// value types: equal generator values with equal rng states build equal
// networks, which is what makes declarative scenario specs reproducible.
//
// Build draws any randomness the family needs from rng; fully
// deterministic families (rings, grids, lines) ignore it, and accept a
// nil rng.
type Generator interface {
	// Validate reports whether the parameters describe a buildable
	// network.
	Validate() error
	// Build materializes the network. Families with random placement
	// retry internally when a sample comes out disconnected and fail
	// only after exhausting their attempts.
	Build(rng *rand.Rand) (*Network, error)
}

// connectAttempts is how many placement samples random generators try
// before giving up on connectivity.
const connectAttempts = 16

// RingGen builds the deterministic ring placement of the analytic model
// (see Rings) — the canonical bridge between the closed-form models and
// the simulator.
type RingGen struct {
	// Model is the analytic ring topology (depth D, density C).
	Model RingModel
}

// Validate reports whether the ring model is usable.
func (g RingGen) Validate() error { return g.Model.Validate() }

// Build materializes the ring placement; rng is ignored.
func (g RingGen) Build(*rand.Rand) (*Network, error) { return Rings(g.Model) }

// DiskGen scatters Nodes nodes uniformly over a disk of Radius radio
// ranges around the sink — the classic random-geometric deployment.
type DiskGen struct {
	// Nodes is the number of nodes excluding the sink.
	Nodes int
	// Radius is the deployment radius in radio-range units.
	Radius float64
}

// Validate reports whether the disk parameters are usable.
func (g DiskGen) Validate() error {
	if g.Nodes < 1 {
		return fmt.Errorf("topology: disk needs at least 1 node, got %d", g.Nodes)
	}
	if g.Radius <= 0 {
		return fmt.Errorf("topology: disk radius %v must be positive", g.Radius)
	}
	return nil
}

// Build samples placements until one is connected (see Disk).
func (g DiskGen) Build(rng *rand.Rand) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return Disk(g.Nodes, g.Radius, rng)
}

// GridGen places Width×Height nodes on a rectangular lattice with the
// sink at a corner — a structured building or field deployment.
type GridGen struct {
	// Width and Height are the lattice dimensions in nodes.
	Width, Height int
	// Spacing is the lattice constant in radio-range units, at most 1.
	Spacing float64
}

// Validate reports whether the grid parameters are usable.
func (g GridGen) Validate() error {
	if g.Width < 1 || g.Height < 1 {
		return fmt.Errorf("topology: grid needs positive dimensions, got %dx%d", g.Width, g.Height)
	}
	if g.Spacing <= 0 || g.Spacing > 1 {
		return fmt.Errorf("topology: grid spacing %v must be in (0, 1]", g.Spacing)
	}
	return nil
}

// Build materializes the lattice; rng is ignored.
func (g GridGen) Build(*rand.Rand) (*Network, error) { return Grid(g.Width, g.Height, g.Spacing) }

// LineGen places Nodes nodes on a line behind the sink — the shape of a
// road-tunnel, pipeline or mine-gallery deployment.
type LineGen struct {
	// Nodes is the number of nodes excluding the sink.
	Nodes int
	// Spacing is the inter-node distance in radio-range units, at most 1.
	Spacing float64
}

// Validate reports whether the line parameters are usable.
func (g LineGen) Validate() error {
	if g.Nodes < 1 {
		return fmt.Errorf("topology: line needs at least 1 node, got %d", g.Nodes)
	}
	if g.Spacing <= 0 || g.Spacing > 1 {
		return fmt.Errorf("topology: line spacing %v must be in (0, 1]", g.Spacing)
	}
	return nil
}

// Build materializes the chain; rng is ignored.
func (g LineGen) Build(*rand.Rand) (*Network, error) { return Line(g.Nodes, g.Spacing) }

// ClusterGen builds a two-tier clustered deployment: Clusters cluster
// heads scattered uniformly within FieldRadius of the sink, each
// surrounded by ClusterSize member nodes within ClusterRadius of their
// head. Heads come first in the ID order (1..Clusters), then members
// grouped by cluster, so the tiers are recoverable from IDs alone.
// Like DiskGen, Build resamples until the unit-disk graph is connected.
type ClusterGen struct {
	// Clusters is the number of cluster heads.
	Clusters int
	// ClusterSize is the number of member nodes per cluster.
	ClusterSize int
	// FieldRadius bounds head placement, in radio-range units.
	FieldRadius float64
	// ClusterRadius bounds member scatter around the head.
	ClusterRadius float64
}

// Validate reports whether the cluster parameters are usable.
func (g ClusterGen) Validate() error {
	if g.Clusters < 1 {
		return fmt.Errorf("topology: cluster needs at least 1 cluster, got %d", g.Clusters)
	}
	if g.ClusterSize < 1 {
		return fmt.Errorf("topology: cluster needs at least 1 member per cluster, got %d", g.ClusterSize)
	}
	if g.FieldRadius <= 0 {
		return fmt.Errorf("topology: cluster field radius %v must be positive", g.FieldRadius)
	}
	if g.ClusterRadius <= 0 {
		return fmt.Errorf("topology: cluster radius %v must be positive", g.ClusterRadius)
	}
	return nil
}

// Build samples two-tier placements until one is connected.
func (g ClusterGen) Build(rng *rand.Rand) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return buildConnected("cluster", func() []Point {
		positions := make([]Point, 0, 1+g.Clusters*(g.ClusterSize+1))
		positions = append(positions, Point{0, 0})
		heads := make([]Point, g.Clusters)
		for c := range heads {
			heads[c] = uniformInDisk(rng, g.FieldRadius)
			positions = append(positions, heads[c])
		}
		for _, h := range heads {
			for k := 0; k < g.ClusterSize; k++ {
				m := uniformInDisk(rng, g.ClusterRadius)
				positions = append(positions, Point{h.X + m.X, h.Y + m.Y})
			}
		}
		return positions
	})
}

// uniformInDisk draws a point uniformly from the disk of the given
// radius around the origin.
func uniformInDisk(rng *rand.Rand, radius float64) Point {
	r := radius * math.Sqrt(rng.Float64())
	theta := 2 * math.Pi * rng.Float64()
	return Point{r * math.Cos(theta), r * math.Sin(theta)}
}
