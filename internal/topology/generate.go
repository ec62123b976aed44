package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// ringSpacing is the radial distance between consecutive rings in
// deterministic placements, kept below the unit radio range so that every
// ring-d node has a ring-(d−1) neighbour.
const ringSpacing = 0.9

// Rings places nodes deterministically according to the ring model:
// ring d receives (2d−1)·(density+1) nodes on a circle of radius
// d·ringSpacing around the sink at the origin. Each ring-d node is
// angularly aligned (within a small offset) with an actual ring-(d−1)
// node, so it always has a previous-ring neighbour within radio range,
// while the 2·ringSpacing radial gap to ring d−2 rules out shortcuts.
// The unit-disk graph (range 1.0) therefore has BFS rings exactly equal
// to the model rings, making it the canonical bridge between the
// analytic model and the simulator.
func Rings(m RingModel) (*Network, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	positions := []Point{{0, 0}}
	var prevAngles []float64
	for d := 1; d <= m.Depth; d++ {
		count := m.NodesAt(d)
		radius := float64(d) * ringSpacing
		angles := make([]float64, 0, count)
		if d == 1 {
			for k := 0; k < count; k++ {
				angles = append(angles, 2*math.Pi*float64(k)/float64(count))
			}
		} else {
			// Anchor node k to the ring-(d−1) node k mod len(prevAngles);
			// extra copies fan out by ±delta, keeping the chord to the
			// anchor well under sqrt(1 − ringSpacing²).
			delta := 0.2 / radius
			na := len(prevAngles)
			for k := 0; k < count; k++ {
				group := k / na
				off := float64((group+1)/2) * delta
				if group%2 == 0 {
					off = -off
				}
				if group == 0 {
					off = 0
				}
				angles = append(angles, prevAngles[k%na]+off)
			}
		}
		for _, theta := range angles {
			positions = append(positions, Point{radius * math.Cos(theta), radius * math.Sin(theta)})
		}
		prevAngles = angles
	}
	return New(positions)
}

// buildConnected samples placements until the unit-disk graph comes out
// connected, retrying up to connectAttempts times — the shared policy of
// every random generator. kind names the family in the give-up error.
// A rejected sample costs one reachability pass; only the kept one is
// built into a Network.
func buildConnected(kind string, sample func() []Point) (*Network, error) {
	var lastErr error
	for a := 0; a < connectAttempts; a++ {
		positions := sample()
		if id := unreachable(positions); id >= 0 {
			lastErr = errUnreachable(id)
			continue
		}
		return New(positions)
	}
	return nil, fmt.Errorf("topology: %s sample stayed disconnected after %d attempts: %w", kind, connectAttempts, lastErr)
}

// unreachable returns the lowest ID of a node that the sink (node 0)
// cannot reach in the unit-disk graph, or -1 when it reaches every
// node. It links exactly the pairs New links: nodes in the same or
// adjacent cells of buildAdjacency's binning whose Dist is at most 1.
func unreachable(positions []Point) int {
	bins := newCellIndex(positions)
	seen := make([]bool, len(positions))
	seen[0] = true
	queue := make([]NodeID, 1, len(positions))
	for head := 0; head < len(queue); head++ {
		p := positions[queue[head]]
		cx, cy := bins.cell(p)
		for x := cx - 1; x <= cx+1; x++ {
			for _, b := range bins.column(x, cy) {
				if v := b.id; !seen[v] && p.Dist(positions[v]) <= 1 {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			return i
		}
	}
	return -1
}

// Disk scatters n nodes uniformly at random over a disk of the given
// radius (in radio-range units) centred on the sink. Generation is
// deterministic for a given rng state. Disk retries a few times if the
// sample happens to be disconnected and returns the underlying error if
// connectivity cannot be achieved.
func Disk(n int, radius float64, rng *rand.Rand) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: disk needs at least 1 node, got %d", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("topology: disk radius %v must be positive", radius)
	}
	return buildConnected("disk", func() []Point {
		positions := make([]Point, 0, n+1)
		positions = append(positions, Point{0, 0})
		for i := 0; i < n; i++ {
			positions = append(positions, uniformInDisk(rng, radius))
		}
		return positions
	})
}

// Line places n nodes on a line with the given spacing (in radio-range
// units), sink at one end — the shape of a road-tunnel or pipeline
// deployment. Spacing must be at most 1 for connectivity.
func Line(n int, spacing float64) (*Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line needs at least 1 node, got %d", n)
	}
	if spacing <= 0 || spacing > 1 {
		return nil, fmt.Errorf("topology: line spacing %v must be in (0, 1]", spacing)
	}
	positions := make([]Point, n+1)
	for i := range positions {
		positions[i] = Point{float64(i) * spacing, 0}
	}
	return New(positions)
}

// Grid places w×h nodes on a rectangular grid with the given spacing,
// sink at a corner. Spacing must be at most 1 so that axis-aligned
// neighbours are connected.
func Grid(w, h int, spacing float64) (*Network, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: grid needs positive dimensions, got %dx%d", w, h)
	}
	if spacing <= 0 || spacing > 1 {
		return nil, fmt.Errorf("topology: grid spacing %v must be in (0, 1]", spacing)
	}
	positions := make([]Point, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			positions = append(positions, Point{float64(x) * spacing, float64(y) * spacing})
		}
	}
	return New(positions)
}
