package topology

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node within one Network. The sink always has ID 0.
type NodeID int

// Point is a position on the plane, in units of the radio range.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Network is an explicit unit-disk-graph network with a designated sink
// and a shortest-path routing tree. Networks are immutable after
// construction, which for lossy channels includes the link-quality
// stamping pass: every generator emits links at the perfect default
// (PRR 1), and a channel model may overwrite them via SetLink before
// the network is shared (see internal/channel.Apply).
type Network struct {
	pos    []Point
	adj    [][]NodeID
	parent []NodeID
	ring   []int
	depth  int

	// linkPRR[i][k] is the packet reception ratio of the directed link
	// i → adj[i][k]; linkGain[i][k] its received-power gain in dB (an
	// arbitrary but mutually comparable scale — the simulator's capture
	// effect only compares gains). Both are nil until SetLink first
	// diverges a link from the perfect default, so the zero-configuration
	// network costs nothing.
	linkPRR  [][]float64
	linkGain [][]float64
	lossy    bool
}

// New builds a network from node positions. positions[0] is the sink.
// Two nodes are neighbours when their distance is at most 1, the radio
// range Point is measured in. The routing tree is the breadth-first shortest-path tree rooted at the
// sink, with ties broken toward the lowest neighbour ID so that repeated
// builds are deterministic. New fails if the graph is disconnected.
func New(positions []Point) (*Network, error) {
	if len(positions) < 2 {
		return nil, fmt.Errorf("topology: need at least a sink and one node, got %d positions", len(positions))
	}
	n := len(positions)
	net := &Network{
		pos:    append([]Point(nil), positions...),
		adj:    make([][]NodeID, n),
		parent: make([]NodeID, n),
		ring:   make([]int, n),
	}
	net.buildAdjacency()
	if err := net.buildTree(); err != nil {
		return nil, err
	}
	return net, nil
}

// buildAdjacency links every pair of nodes within radio range, using grid
// binning so that large networks do not pay the full O(n²) scan.
func (net *Network) buildAdjacency() {
	bins := newCellIndex(net.pos)
	for i, p := range net.pos {
		cx, cy := bins.cell(p)
		for x := cx - 1; x <= cx+1; x++ {
			for _, b := range bins.column(x, cy) {
				if j := b.id; int(j) > i && p.Dist(net.pos[j]) <= 1 {
					net.adj[i] = append(net.adj[i], j)
					net.adj[j] = append(net.adj[j], NodeID(i))
				}
			}
		}
	}
	for i := range net.adj {
		ids := net.adj[i]
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}
}

// cellIndex bins nodes into unit square cells, one radio range a side,
// so two nodes within range lie in the same or adjacent cells. Instead
// of a map of cells it keeps the nodes sorted by cell, column by column,
// so the three cells of one column of a node's neighbourhood are one
// contiguous run.
type cellIndex struct {
	bins []binned
}

// binned is one node and the column and row of its cell.
type binned struct {
	cx, cy int
	id     NodeID
}

func newCellIndex(pos []Point) cellIndex {
	ix := cellIndex{bins: make([]binned, len(pos))}
	for i, p := range pos {
		cx, cy := ix.cell(p)
		ix.bins[i] = binned{cx, cy, NodeID(i)}
	}
	sort.Slice(ix.bins, func(a, b int) bool {
		if ix.bins[a].cx != ix.bins[b].cx {
			return ix.bins[a].cx < ix.bins[b].cx
		}
		return ix.bins[a].cy < ix.bins[b].cy
	})
	return ix
}

// cell returns the column and row of p's cell.
func (ix cellIndex) cell(p Point) (int, int) {
	return int(math.Floor(p.X)), int(math.Floor(p.Y))
}

// column returns the nodes in cells (cx, cy−1), (cx, cy) and (cx, cy+1).
func (ix cellIndex) column(cx, cy int) []binned {
	b := ix.bins
	lo := sort.Search(len(b), func(k int) bool {
		return b[k].cx > cx || b[k].cx == cx && b[k].cy >= cy-1
	})
	hi := lo
	for hi < len(b) && b[hi].cx == cx && b[hi].cy <= cy+1 {
		hi++
	}
	return b[lo:hi]
}

// buildTree runs a BFS from the sink, assigning rings (hop counts) and
// parents. It fails if any node is unreachable.
func (net *Network) buildTree() error {
	n := len(net.pos)
	for i := range net.ring {
		net.ring[i] = -1
		net.parent[i] = -1
	}
	net.ring[0] = 0
	queue := []NodeID{0}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range net.adj[u] {
			if net.ring[v] != -1 {
				continue
			}
			net.ring[v] = net.ring[u] + 1
			net.parent[v] = u
			queue = append(queue, v)
			if net.ring[v] > net.depth {
				net.depth = net.ring[v]
			}
		}
	}
	for i := 0; i < n; i++ {
		if net.ring[i] == -1 {
			return errUnreachable(i)
		}
	}
	return nil
}

// errUnreachable is the error for a network whose sink cannot reach
// node id.
func errUnreachable(id int) error {
	return fmt.Errorf("topology: node %d is not connected to the sink", id)
}

// N returns the number of nodes including the sink.
func (net *Network) N() int { return len(net.pos) }

// Depth returns the maximum ring (hop count) in the network.
func (net *Network) Depth() int { return net.depth }

// Position returns the location of node id.
func (net *Network) Position(id NodeID) Point { return net.pos[id] }

// Ring returns the hop distance of id from the sink (0 for the sink).
func (net *Network) Ring(id NodeID) int { return net.ring[id] }

// Parent returns the routing-tree parent of id, or -1 for the sink.
func (net *Network) Parent(id NodeID) NodeID { return net.parent[id] }

// Neighbors returns a copy of the neighbour list of id, sorted by ID.
func (net *Network) Neighbors(id NodeID) []NodeID {
	return append([]NodeID(nil), net.adj[id]...)
}

// NodesAtRing returns the IDs of all nodes at ring d, sorted.
func (net *Network) NodesAtRing(d int) []NodeID {
	var ids []NodeID
	for i := range net.pos {
		if net.ring[i] == d {
			ids = append(ids, NodeID(i))
		}
	}
	return ids
}

// TwoHopNeighbors returns the set of nodes within two hops of id
// (excluding id itself), sorted by ID.
func (net *Network) TwoHopNeighbors(id NodeID) []NodeID {
	seen := map[NodeID]bool{id: true}
	var out []NodeID
	for _, v := range net.adj[id] {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		for _, w := range net.adj[v] {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// linkIndex returns the position of b in a's (sorted) neighbour list,
// or -1 when the two nodes are not neighbours.
func (net *Network) linkIndex(a, b NodeID) int {
	ids := net.adj[a]
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == b {
		return lo
	}
	return -1
}

// SetLink stamps the directed link a→b with a packet reception ratio
// (clamped to [0, 1]) and a received-power gain in dB. It is part of
// network construction: channel models call it once per link during
// scenario materialization, before the network is shared (Networks are
// treated as immutable afterwards). Setting a non-existent link is a
// no-op.
func (net *Network) SetLink(a, b NodeID, prr, gainDB float64) {
	k := net.linkIndex(a, b)
	if k < 0 {
		return
	}
	if net.linkPRR == nil {
		n := len(net.pos)
		net.linkPRR = make([][]float64, n)
		net.linkGain = make([][]float64, n)
		for i := range net.adj {
			net.linkPRR[i] = make([]float64, len(net.adj[i]))
			net.linkGain[i] = make([]float64, len(net.adj[i]))
			for j := range net.linkPRR[i] {
				net.linkPRR[i][j] = 1
			}
		}
	}
	if prr < 0 {
		prr = 0
	}
	if prr > 1 {
		prr = 1
	}
	net.linkPRR[a][k] = prr
	net.linkGain[a][k] = gainDB
	if prr < 1 {
		net.lossy = true
	}
}

// LinkPRR returns the packet reception ratio of the directed link a→b:
// 1 for every link of a perfect (never-stamped) network or for
// non-neighbours, the stamped value otherwise.
func (net *Network) LinkPRR(a, b NodeID) float64 {
	if net.linkPRR == nil {
		return 1
	}
	k := net.linkIndex(a, b)
	if k < 0 {
		return 1
	}
	return net.linkPRR[a][k]
}

// LinkGainDB returns the received-power gain of the directed link a→b
// in dB (0 when never stamped).
func (net *Network) LinkGainDB(a, b NodeID) float64 {
	if net.linkGain == nil {
		return 0
	}
	k := net.linkIndex(a, b)
	if k < 0 {
		return 0
	}
	return net.linkGain[a][k]
}

// Lossy reports whether any link carries a PRR below 1 — the switch the
// simulator uses to keep the perfect-channel hot path draw-free.
func (net *Network) Lossy() bool { return net.lossy }

// MeanLinkPRR returns the average packet reception ratio over all
// directed links — the single link quality the analytic ring models
// (which have no per-link structure) inflate their retransmission
// expectations with. A perfect network returns exactly 1.
func (net *Network) MeanLinkPRR() float64 {
	if net.linkPRR == nil {
		return 1
	}
	sum, n := 0.0, 0
	for i := range net.linkPRR {
		for _, p := range net.linkPRR[i] {
			sum += p
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// SurvivorStats summarizes the fragment of the network that can still
// deliver traffic when some nodes are down: parents never re-route, so
// an alive node reaches the sink exactly when every ancestor on its
// routing path is alive. The stats are what a degradation-aware
// re-bargain maps onto the analytic ring abstraction — Depth and
// MeanDegree of the reachable fragment stand in for the full network's.
type SurvivorStats struct {
	// Reachable counts alive non-sink nodes whose whole routing path to
	// the sink is alive.
	Reachable int
	// Depth is the maximum ring among reachable nodes (0 when none).
	Depth int
	// MeanDegree is the average degree of the subgraph induced by the
	// sink and the reachable nodes (0 when nothing is reachable).
	MeanDegree float64
}

// SurvivorStats computes the reachable-fragment statistics for a
// liveness vector: alive[i] reports node i up. The sink's entry is
// ignored — the sink is always up (the simulator never crashes it).
// alive must have one entry per node.
func (net *Network) SurvivorStats(alive []bool) SurvivorStats {
	var st SurvivorStats
	n := len(net.pos)
	reach := make([]bool, n)
	reach[0] = true
	// Nodes in increasing ring order inherit reachability from their
	// parent, which BFS ordering guarantees is already classified; a
	// plain parent-chain walk per node would be quadratic on deep nets.
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool { return net.ring[order[a]] < net.ring[order[b]] })
	for _, id := range order {
		if id == 0 || !alive[id] || !reach[net.parent[id]] {
			continue
		}
		reach[id] = true
		st.Reachable++
		if net.ring[id] > st.Depth {
			st.Depth = net.ring[id]
		}
	}
	if st.Reachable == 0 {
		return st
	}
	deg := 0
	for i, ids := range net.adj {
		if !reach[i] {
			continue
		}
		for _, j := range ids {
			if reach[j] {
				deg++
			}
		}
	}
	st.MeanDegree = float64(deg) / float64(st.Reachable+1)
	return st
}

// MeanDegree returns the average node degree, an empirical estimate of
// the density parameter C of the ring model.
func (net *Network) MeanDegree() float64 {
	total := 0
	for i := range net.adj {
		total += len(net.adj[i])
	}
	return float64(total) / float64(len(net.adj))
}
