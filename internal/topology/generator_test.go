package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// generatorCases is the shared table of representative generator
// configurations used by the invariant tests below.
var generatorCases = []struct {
	name string
	gen  Generator
	// wantDepth is the exact BFS depth for deterministic placements,
	// or -1 when the depth is sample-dependent.
	wantDepth int
}{
	{"ring-3x3", RingGen{Model: RingModel{Depth: 3, Density: 3}}, 3},
	{"line-12", LineGen{Nodes: 12, Spacing: 0.8}, 12},
	{"line-tight", LineGen{Nodes: 6, Spacing: 1.0}, 6},
	{"grid-5x4", GridGen{Width: 5, Height: 4, Spacing: 0.9}, 7},
	{"grid-row", GridGen{Width: 7, Height: 1, Spacing: 0.7}, 6},
	{"disk-sparse", DiskGen{Nodes: 30, Radius: 2.2}, -1},
	{"disk-dense", DiskGen{Nodes: 40, Radius: 1.6}, -1},
	{"cluster-2tier", ClusterGen{Clusters: 4, ClusterSize: 5, FieldRadius: 1.6, ClusterRadius: 0.7}, -1},
}

func buildCase(t *testing.T, gen Generator, seed int64) *Network {
	t.Helper()
	net, err := gen.Build(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%T.Build: %v", gen, err)
	}
	return net
}

// TestGeneratorConnectivity asserts the core contract: every node of a
// built network reaches the sink along the routing tree.
func TestGeneratorConnectivity(t *testing.T) {
	for _, tc := range generatorCases {
		t.Run(tc.name, func(t *testing.T) {
			net := buildCase(t, tc.gen, 7)
			for i := 0; i < net.N(); i++ {
				id := NodeID(i)
				if net.Ring(id) < 0 {
					t.Fatalf("node %d unreachable", i)
				}
				hops := 0
				for p := id; p != 0; p = net.Parent(p) {
					if p < 0 || hops > net.N() {
						t.Fatalf("node %d routing path does not end at the sink", i)
					}
					hops++
				}
				if hops != net.Ring(id) {
					t.Errorf("node %d path length %d != ring %d", i, hops, net.Ring(id))
				}
			}
		})
	}
}

// TestGeneratorUnitDisk asserts the unit-disk property and neighbour
// symmetry: i and j are mutual neighbours exactly when their distance is
// within the radio range.
func TestGeneratorUnitDisk(t *testing.T) {
	for _, tc := range generatorCases {
		t.Run(tc.name, func(t *testing.T) {
			net := buildCase(t, tc.gen, 11)
			const r = 1.0
			for i := 0; i < net.N(); i++ {
				id := NodeID(i)
				nbs := map[NodeID]bool{}
				for _, nb := range net.Neighbors(id) {
					nbs[nb] = true
					// Symmetry: the neighbour lists must agree.
					back := false
					for _, w := range net.Neighbors(nb) {
						if w == id {
							back = true
							break
						}
					}
					if !back {
						t.Fatalf("asymmetric link %d->%d", i, nb)
					}
				}
				for j := 0; j < net.N(); j++ {
					if j == i {
						continue
					}
					inRange := net.Position(id).Dist(net.Position(NodeID(j))) <= r
					if inRange != nbs[NodeID(j)] {
						t.Fatalf("node %d/%d: inRange=%v neighbour=%v", i, j, inRange, nbs[NodeID(j)])
					}
				}
			}
		})
	}
}

// TestGeneratorDepth pins the exact BFS depth of the deterministic
// placements: a line of n nodes is n hops deep, a w×h grid with only
// axis-aligned links is (w−1)+(h−1) deep, a depth-D ring model is D deep.
func TestGeneratorDepth(t *testing.T) {
	for _, tc := range generatorCases {
		if tc.wantDepth < 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			net := buildCase(t, tc.gen, 3)
			if net.Depth() != tc.wantDepth {
				t.Errorf("depth = %d, want %d", net.Depth(), tc.wantDepth)
			}
		})
	}
}

// TestGeneratorDeterminism asserts equal seeds rebuild identical
// networks, the property scenario reproducibility rests on.
func TestGeneratorDeterminism(t *testing.T) {
	for _, tc := range generatorCases {
		t.Run(tc.name, func(t *testing.T) {
			a := buildCase(t, tc.gen, 42)
			b := buildCase(t, tc.gen, 42)
			if a.N() != b.N() {
				t.Fatalf("sizes differ: %d vs %d", a.N(), b.N())
			}
			for i := 0; i < a.N(); i++ {
				if a.Position(NodeID(i)) != b.Position(NodeID(i)) {
					t.Fatalf("node %d placed at %v then %v", i, a.Position(NodeID(i)), b.Position(NodeID(i)))
				}
				if a.Parent(NodeID(i)) != b.Parent(NodeID(i)) {
					t.Fatalf("node %d parent %d then %d", i, a.Parent(NodeID(i)), b.Parent(NodeID(i)))
				}
			}
		})
	}
}

// TestClusterTiers asserts the two-tier ID layout of ClusterGen: heads
// occupy IDs 1..Clusters and sit within FieldRadius of the sink; member
// k of cluster c sits within ClusterRadius of head c.
func TestClusterTiers(t *testing.T) {
	g := ClusterGen{Clusters: 3, ClusterSize: 4, FieldRadius: 1.5, ClusterRadius: 0.6}
	net := buildCase(t, g, 9)
	if want := 1 + g.Clusters*(g.ClusterSize+1); net.N() != want {
		t.Fatalf("N = %d, want %d", net.N(), want)
	}
	for c := 0; c < g.Clusters; c++ {
		head := net.Position(NodeID(1 + c))
		if d := head.Dist(Point{0, 0}); d > g.FieldRadius {
			t.Errorf("head %d at distance %v > field radius %v", c+1, d, g.FieldRadius)
		}
		for k := 0; k < g.ClusterSize; k++ {
			id := NodeID(1 + g.Clusters + c*g.ClusterSize + k)
			if d := net.Position(id).Dist(head); d > g.ClusterRadius {
				t.Errorf("member %d at distance %v from head %d > cluster radius %v", id, d, c+1, g.ClusterRadius)
			}
		}
	}
}

// TestGeneratorValidate asserts each family rejects its invalid
// parameter shapes.
func TestGeneratorValidate(t *testing.T) {
	bad := []Generator{
		RingGen{Model: RingModel{Depth: 0, Density: 3}},
		DiskGen{Nodes: 0, Radius: 2},
		DiskGen{Nodes: 10, Radius: 0},
		GridGen{Width: 0, Height: 3, Spacing: 0.9},
		GridGen{Width: 3, Height: 3, Spacing: 1.5},
		LineGen{Nodes: 0, Spacing: 0.8},
		LineGen{Nodes: 5, Spacing: 0},
		ClusterGen{Clusters: 0, ClusterSize: 3, FieldRadius: 1, ClusterRadius: 0.5},
		ClusterGen{Clusters: 2, ClusterSize: 0, FieldRadius: 1, ClusterRadius: 0.5},
		ClusterGen{Clusters: 2, ClusterSize: 3, FieldRadius: 0, ClusterRadius: 0.5},
		ClusterGen{Clusters: 2, ClusterSize: 3, FieldRadius: 1, ClusterRadius: 0},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("%#v validated", g)
		}
		if _, err := g.Build(rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%#v built", g)
		}
	}
}

// legacyBuildConnected is buildConnected as it was before the
// reachability pass: it builds a whole Network for every sample and
// keeps the first that New accepts.
func legacyBuildConnected(kind string, sample func() []Point) (*Network, error) {
	var lastErr error
	for a := 0; a < connectAttempts; a++ {
		net, err := New(sample())
		if err == nil {
			return net, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("topology: %s sample stayed disconnected after %d attempts: %w", kind, connectAttempts, lastErr)
}

// TestBuildConnectedMatchesLegacy: Disk and ClusterGen draw the same
// samples and keep the same one as the legacy loop, so every network is
// identical field for field, and a sample family that never connects
// gives up with the same error text. The legacy side re-draws Disk's
// and ClusterGen's placements with its own generator of the same seed.
func TestBuildConnectedMatchesLegacy(t *testing.T) {
	var retried, gaveUp, total int
	check := func(name string, got *Network, gotErr error, kind string, sample func() []Point) {
		t.Helper()
		samples := 0
		want, wantErr := legacyBuildConnected(kind, func() []Point { samples++; return sample() })
		total++
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%s: error %v, legacy error %v", name, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, legacy error %q", name, gotErr, wantErr)
			}
			gaveUp++
		case !reflect.DeepEqual(got, want):
			t.Fatalf("%s: network differs from the legacy loop's", name)
		case samples > 1:
			retried++
		}
	}
	for _, n := range []int{1, 3, 10, 30, 80} {
		for _, radius := range []float64{0.5, 1.2, 2, 3, 5, 12} {
			for seed := int64(1); seed <= 8; seed++ {
				got, err := Disk(n, radius, rand.New(rand.NewSource(seed)))
				rng := rand.New(rand.NewSource(seed))
				check(fmt.Sprintf("disk(%d, %v, seed %d)", n, radius, seed), got, err, "disk", func() []Point {
					positions := []Point{{0, 0}}
					for i := 0; i < n; i++ {
						positions = append(positions, uniformInDisk(rng, radius))
					}
					return positions
				})
			}
		}
	}
	for _, clusters := range []int{1, 3, 5} {
		for _, size := range []int{1, 4} {
			for _, field := range []float64{1, 2.5, 6} {
				for seed := int64(1); seed <= 4; seed++ {
					g := ClusterGen{Clusters: clusters, ClusterSize: size, FieldRadius: field, ClusterRadius: 0.6}
					got, err := g.Build(rand.New(rand.NewSource(seed)))
					rng := rand.New(rand.NewSource(seed))
					check(fmt.Sprintf("%+v seed %d", g, seed), got, err, "cluster", func() []Point {
						positions := []Point{{0, 0}}
						heads := make([]Point, clusters)
						for c := range heads {
							heads[c] = uniformInDisk(rng, field)
							positions = append(positions, heads[c])
						}
						for _, h := range heads {
							for k := 0; k < size; k++ {
								m := uniformInDisk(rng, g.ClusterRadius)
								positions = append(positions, Point{h.X + m.X, h.Y + m.Y})
							}
						}
						return positions
					})
				}
			}
		}
	}
	if retried == 0 || gaveUp == 0 {
		t.Fatalf("of %d builds, %d connected after a rejected sample and %d gave up; want some of each", total, retried, gaveUp)
	}
	t.Logf("%d builds: %d connected after a rejected sample, %d gave up", total, retried, gaveUp)
}
