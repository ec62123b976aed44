package topology

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New([]Point{{0, 0}}); err == nil {
		t.Error("New with a single position should fail")
	}
	if _, err := New([]Point{{0, 0}, {5, 0}}); err == nil {
		t.Error("New with a disconnected node should fail")
	}
}

func TestLineTopology(t *testing.T) {
	net, err := Line(5, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	if got, want := net.N(), 6; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if got, want := net.Depth(), 5; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
	for i := 1; i <= 5; i++ {
		id := NodeID(i)
		if got, want := net.Ring(id), i; got != want {
			t.Errorf("Ring(%d) = %d, want %d", id, got, want)
		}
		if got, want := net.Parent(id), NodeID(i-1); got != want {
			t.Errorf("Parent(%d) = %d, want %d", id, got, want)
		}
	}
}

func TestRingsPlacementMatchesModel(t *testing.T) {
	m := RingModel{Depth: 4, Density: 5}
	net, err := Rings(m)
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	if got, want := net.N(), 1+(m.Density+1)*m.Depth*m.Depth; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	if got, want := net.Depth(), m.Depth; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
	for d := 1; d <= m.Depth; d++ {
		if got, want := len(net.NodesAtRing(d)), m.NodesAt(d); got != want {
			t.Errorf("ring %d population = %d, want %d", d, got, want)
		}
	}
}

func TestDiskDeterministicForSeed(t *testing.T) {
	a, err := Disk(60, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Disk: %v", err)
	}
	b, err := Disk(60, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Disk: %v", err)
	}
	if a.N() != b.N() {
		t.Fatalf("sizes differ: %d vs %d", a.N(), b.N())
	}
	for i := 0; i < a.N(); i++ {
		if a.Position(NodeID(i)) != b.Position(NodeID(i)) {
			t.Fatalf("node %d position differs between same-seed builds", i)
		}
	}
}

func TestDiskInvariants(t *testing.T) {
	net, err := Disk(80, 3, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("Disk: %v", err)
	}
	if net.Ring(0) != 0 {
		t.Errorf("sink ring = %d, want 0", net.Ring(0))
	}
	for i := 1; i < net.N(); i++ {
		id := NodeID(i)
		p := net.Parent(id)
		if p < 0 {
			t.Fatalf("node %d has no parent", id)
		}
		if net.Ring(p) != net.Ring(id)-1 {
			t.Errorf("parent of ring-%d node %d is at ring %d", net.Ring(id), id, net.Ring(p))
		}
		if net.Position(id).Dist(net.Position(p)) > 1+1e-12 {
			t.Errorf("node %d parent link longer than radio range", id)
		}
	}
}

func TestGrid(t *testing.T) {
	net, err := Grid(4, 3, 1.0)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if got, want := net.N(), 12; got != want {
		t.Fatalf("N = %d, want %d", got, want)
	}
	// Corner sink: opposite corner is (w-1)+(h-1) hops away.
	if got, want := net.Depth(), 5; got != want {
		t.Errorf("Depth = %d, want %d", got, want)
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := Line(0, 0.5); err == nil {
		t.Error("Line(0, ...) should fail")
	}
	if _, err := Line(3, 1.5); err == nil {
		t.Error("Line with spacing > 1 should fail")
	}
	if _, err := Grid(0, 3, 0.5); err == nil {
		t.Error("Grid(0, ...) should fail")
	}
	if _, err := Disk(0, 3, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Disk(0, ...) should fail")
	}
	if _, err := Disk(5, -1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("Disk with negative radius should fail")
	}
}

func TestNeighborsReturnsCopy(t *testing.T) {
	net, err := Line(3, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	nbs := net.Neighbors(1)
	if len(nbs) == 0 {
		t.Fatal("node 1 should have neighbours")
	}
	nbs[0] = 999
	if net.Neighbors(1)[0] == 999 {
		t.Error("Neighbors exposes internal state")
	}
}

func TestTwoHopNeighbors(t *testing.T) {
	net, err := Line(5, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	got := net.TwoHopNeighbors(2)
	want := []NodeID{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("TwoHopNeighbors(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TwoHopNeighbors(2) = %v, want %v", got, want)
		}
	}
}

// TestSurvivorStats pins the reachable-fragment semantics on a line,
// where reachability is easy to see: parents never re-route, so a dead
// relay strands everything behind it.
func TestSurvivorStats(t *testing.T) {
	net, err := Line(5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	alive := make([]bool, net.N())
	for i := range alive {
		alive[i] = true
	}
	st := net.SurvivorStats(alive)
	if st.Reachable != 5 || st.Depth != 5 {
		t.Fatalf("all alive: %+v", st)
	}
	// A 6-node path has 5 edges: directed degree sum 10 over 6 nodes.
	if want := 10.0 / 6; math.Abs(st.MeanDegree-want) > 1e-12 {
		t.Errorf("MeanDegree = %v, want %v", st.MeanDegree, want)
	}

	// Kill node 2: node 1 still delivers, nodes 3..5 are stranded.
	alive[2] = false
	st = net.SurvivorStats(alive)
	if st.Reachable != 1 || st.Depth != 1 {
		t.Fatalf("relay dead: %+v", st)
	}
	if st.MeanDegree != 1 {
		t.Errorf("MeanDegree = %v, want 1 for the sink–node-1 pair", st.MeanDegree)
	}

	// Kill everything: the empty fragment reports zeros.
	for i := 1; i < len(alive); i++ {
		alive[i] = false
	}
	st = net.SurvivorStats(alive)
	if st.Reachable != 0 || st.Depth != 0 || st.MeanDegree != 0 {
		t.Fatalf("all dead: %+v", st)
	}
}

func TestMeanDegreeOnLine(t *testing.T) {
	net, err := Line(4, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	// Chain of 5 nodes: degrees 1,2,2,2,1 → mean 8/5.
	if got, want := net.MeanDegree(), 8.0/5.0; got != want {
		t.Errorf("MeanDegree = %v, want %v", got, want)
	}
}
