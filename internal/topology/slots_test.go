package topology

import (
	"math/rand"
	"testing"
)

func TestAssignSlotsLine(t *testing.T) {
	net, err := Line(6, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	slots, used, err := net.AssignSlots(8)
	if err != nil {
		t.Fatalf("AssignSlots: %v", err)
	}
	if used > 3 {
		t.Errorf("a chain needs at most 3 slots, used %d", used)
	}
	checkTwoHopConflictFree(t, net, slots)
}

func TestAssignSlotsRings(t *testing.T) {
	net, err := Rings(RingModel{Depth: 3, Density: 4})
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	slots, used, err := net.AssignSlots(64)
	if err != nil {
		t.Fatalf("AssignSlots: %v", err)
	}
	if used < 2 {
		t.Errorf("dense network cannot be scheduled with %d slots", used)
	}
	checkTwoHopConflictFree(t, net, slots)
}

func TestAssignSlotsTooFewSlots(t *testing.T) {
	net, err := Rings(RingModel{Depth: 3, Density: 4})
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	if _, _, err := net.AssignSlots(2); err == nil {
		t.Error("AssignSlots(2) on a dense network should fail")
	}
	if _, _, err := net.AssignSlots(0); err == nil {
		t.Error("AssignSlots(0) should fail")
	}
}

// TestMinSlots checks MinSlots on the builtin scenarios' topologies:
// the frame it returns is schedulable and one slot fewer is not.
func TestMinSlots(t *testing.T) {
	cases := []struct {
		name string
		gen  Generator
		seed int64
	}{
		{"ring", RingGen{Model: RingModel{Depth: 3, Density: 3}}, 1},
		{"ring-dense", RingGen{Model: RingModel{Depth: 3, Density: 4}}, 1},
		{"disk-meadow", DiskGen{Nodes: 36, Radius: 2.6}, 7},
		{"disk-dense", DiskGen{Nodes: 48, Radius: 1.8}, 3},
		{"disk-bursty", DiskGen{Nodes: 30, Radius: 2.2}, 11},
		{"disk-50", DiskGen{Nodes: 50, Radius: 3}, 11},
		{"grid-campus", GridGen{Width: 7, Height: 5, Spacing: 0.9}, 1},
		{"grid-eventwatch", GridGen{Width: 6, Height: 6, Spacing: 0.8}, 1},
		{"line-tunnel", LineGen{Nodes: 24, Spacing: 0.8}, 1},
		{"line-sentinel", LineGen{Nodes: 18, Spacing: 0.9}, 1},
		{"cluster-twotier", ClusterGen{Clusters: 4, ClusterSize: 6, FieldRadius: 1.8, ClusterRadius: 0.7}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, err := tc.gen.Build(rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			min := net.MinSlots()
			if _, _, err := net.AssignSlots(min); err != nil {
				t.Errorf("AssignSlots(MinSlots=%d) failed: %v", min, err)
			}
			if min > 1 {
				if _, _, err := net.AssignSlots(min - 1); err == nil {
					t.Errorf("AssignSlots(MinSlots-1=%d) unexpectedly succeeded", min-1)
				}
			}
		})
	}
}

func checkTwoHopConflictFree(t *testing.T, net *Network, slots []int) {
	t.Helper()
	for i := 0; i < net.N(); i++ {
		id := NodeID(i)
		for _, nb := range net.TwoHopNeighbors(id) {
			if slots[id] == slots[nb] {
				t.Fatalf("nodes %d and %d within two hops share slot %d", id, nb, slots[id])
			}
		}
	}
}
