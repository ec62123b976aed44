package topology

import "fmt"

// AssignSlots computes a TDMA slot assignment in which no two nodes
// within two hops of each other share a slot — the steady state LMAC's
// distributed slot-claiming converges to. It greedily colours nodes in
// BFS order (deterministic) and returns one slot index per node plus the
// number of distinct slots used.
//
// frameSlots caps the schedule: if more slots are needed than the frame
// provides, AssignSlots returns an error naming the shortfall, which the
// caller surfaces as an LMAC feasibility violation.
func (net *Network) AssignSlots(frameSlots int) ([]int, int, error) {
	if frameSlots < 1 {
		return nil, 0, fmt.Errorf("topology: frame must have at least 1 slot, got %d", frameSlots)
	}
	n := net.N()
	slots := make([]int, n)
	for i := range slots {
		slots[i] = -1
	}
	// BFS order: sink first, then ring by ring, by ID inside a ring.
	order := make([]NodeID, 0, n)
	for d := 0; d <= net.Depth(); d++ {
		order = append(order, net.NodesAtRing(d)...)
	}
	used := 0
	taken := make([]bool, frameSlots)
	for _, id := range order {
		for i := range taken {
			taken[i] = false
		}
		for _, nb := range net.TwoHopNeighbors(id) {
			if s := slots[nb]; s >= 0 {
				taken[s] = true
			}
		}
		slot := -1
		for s := 0; s < frameSlots; s++ {
			if !taken[s] {
				slot = s
				break
			}
		}
		if slot < 0 {
			return nil, 0, fmt.Errorf("topology: node %d has no free slot in a %d-slot frame (2-hop neighbourhood too dense)", id, frameSlots)
		}
		slots[id] = slot
		if slot+1 > used {
			used = slot + 1
		}
	}
	return slots, used, nil
}

// MinSlots returns the smallest frame size for which AssignSlots
// succeeds. It is a topology property used to lower-bound LMAC's
// Nslots parameter.
//
// One greedy pass finds it. Capped at F slots, the pass gives every
// node the slot the uncapped pass gives it, up to the first node the
// uncapped pass puts in slot F or beyond; there the capped pass finds
// all F slots taken and fails. So AssignSlots(F) succeeds exactly when
// the uncapped pass uses at most F slots. A frame of N slots is never
// short (a node has fewer than N two-hop neighbours), so that pass is
// AssignSlots(N).
func (net *Network) MinSlots() int {
	_, used, _ := net.AssignSlots(net.N())
	return used
}
