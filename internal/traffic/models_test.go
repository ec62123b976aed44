package traffic

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/edmac-project/edmac/internal/topology"
)

// testNetworks builds one representative network per generator family.
func testNetworks(t *testing.T) map[string]*topology.Network {
	t.Helper()
	nets := map[string]*topology.Network{}
	for name, gen := range map[string]topology.Generator{
		"ring":    topology.RingGen{Model: topology.RingModel{Depth: 3, Density: 3}},
		"line":    topology.LineGen{Nodes: 10, Spacing: 0.8},
		"grid":    topology.GridGen{Width: 5, Height: 4, Spacing: 0.9},
		"disk":    topology.DiskGen{Nodes: 30, Radius: 2.2},
		"cluster": topology.ClusterGen{Clusters: 3, ClusterSize: 5, FieldRadius: 1.6, ClusterRadius: 0.7},
	} {
		net, err := gen.Build(rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nets[name] = net
	}
	return nets
}

func testModels() map[string]Model {
	return map[string]Model{
		"periodic":      Periodic{Rate: 1.0 / 60},
		"bursty":        Bursty{PeakRate: 0.2, OnMean: 30, OffMean: 120},
		"event":         Event{EventRate: 1.0 / 45, EventRadius: 1.2, BackgroundRate: 1.0 / 600},
		"event-nobg":    Event{EventRate: 1.0 / 30, EventRadius: 1.5},
		"heterogeneous": Heterogeneous{BaseRate: 1.0 / 120, OuterFactor: 4},
	}
}

// TestNodeFlowsConservation asserts, for every model on every topology
// family, that MeanRates gives the sink rate 0 and the non-sink nodes a
// positive total rate.
func TestNodeFlowsConservation(t *testing.T) {
	for netName, net := range testNetworks(t) {
		for modelName, m := range testModels() {
			t.Run(netName+"/"+modelName, func(t *testing.T) {
				rates := m.MeanRates(net)
				if rates[0] != 0 {
					t.Fatalf("sink rate = %v, want 0", rates[0])
				}
				total := 0.0
				for _, r := range rates {
					total += r
				}
				if total <= 0 {
					t.Fatal("model generates nothing")
				}
			})
		}
	}
}

// TestArrivalsContract asserts the schedule contract every model must
// satisfy: deterministic for equal seeds, sorted, inside (0, duration),
// empty at the sink, and different across seeds.
func TestArrivalsContract(t *testing.T) {
	net := testNetworks(t)["grid"]
	const duration = 3600.0
	for name, m := range testModels() {
		t.Run(name, func(t *testing.T) {
			if err := m.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := m.Arrivals(net, 0, 1, duration); len(got) != 0 {
				t.Errorf("sink generated %d packets", len(got))
			}
			anyDiffer := false
			for i := 1; i < net.N(); i++ {
				id := topology.NodeID(i)
				a := m.Arrivals(net, id, 1, duration)
				b := m.Arrivals(net, id, 1, duration)
				if !equalSlices(a, b) {
					t.Fatalf("node %d schedule not deterministic", i)
				}
				if !sort.Float64sAreSorted(a) {
					t.Fatalf("node %d schedule unsorted", i)
				}
				for _, at := range a {
					if at <= 0 || at >= duration {
						t.Fatalf("node %d arrival %v outside (0, %v)", i, at, duration)
					}
				}
				if !equalSlices(a, m.Arrivals(net, id, 2, duration)) {
					anyDiffer = true
				}
			}
			if !anyDiffer {
				t.Error("schedules identical across seeds")
			}
		})
	}
}

// TestArrivalsMatchMeanRates asserts the empirical rate of long
// schedules converges on MeanRates — the bridge between the simulator's
// and the analytic side's view of a model.
func TestArrivalsMatchMeanRates(t *testing.T) {
	net := testNetworks(t)["disk"]
	const duration = 400000.0
	for name, m := range testModels() {
		t.Run(name, func(t *testing.T) {
			rates := m.MeanRates(net)
			want, got := 0.0, 0.0
			for i := 1; i < net.N(); i++ {
				want += rates[i] * duration
				got += float64(len(m.Arrivals(net, topology.NodeID(i), 3, duration)))
			}
			if math.Abs(got-want) > 0.05*want {
				t.Errorf("generated %v packets, analytic mean predicts %v", got, want)
			}
		})
	}
}

// TestEventCorrelation asserts the defining property of the event model:
// co-located nodes report the same events at nearly the same instant.
func TestEventCorrelation(t *testing.T) {
	// Two nodes half a range apart: their sensing disks almost coincide.
	net, err := topology.New([]topology.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}, {X: 0.9, Y: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	m := Event{EventRate: 0.05, EventRadius: 2.5}
	a := m.Arrivals(net, 1, 9, 20000)
	b := m.Arrivals(net, 2, 9, 20000)
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("no events sensed: %d/%d", len(a), len(b))
	}
	// Every shared event appears in both schedules within the sensing
	// jitter; with nearly coincident disks most events are shared.
	shared := 0
	j := 0
	for _, at := range a {
		for j < len(b) && b[j] < at-maxSensingDelay {
			j++
		}
		if j < len(b) && math.Abs(b[j]-at) <= maxSensingDelay {
			shared++
		}
	}
	if frac := float64(shared) / float64(len(a)); frac < 0.8 {
		t.Errorf("only %.0f%% of node 1's reports correlate with node 2", 100*frac)
	}
}

// TestHeterogeneousGradient pins the ring interpolation: base rate at
// ring 1, base·factor at the outermost ring, monotone in between.
func TestHeterogeneousGradient(t *testing.T) {
	net := testNetworks(t)["line"]
	m := Heterogeneous{BaseRate: 0.01, OuterFactor: 5}
	rates := m.MeanRates(net)
	depth := net.Depth()
	for i := 1; i < net.N(); i++ {
		ring := net.Ring(topology.NodeID(i))
		switch ring {
		case 1:
			if !closeTo(rates[i], m.BaseRate, 1e-12) {
				t.Errorf("ring-1 rate %v, want %v", rates[i], m.BaseRate)
			}
		case depth:
			if !closeTo(rates[i], m.BaseRate*m.OuterFactor, 1e-12) {
				t.Errorf("outer rate %v, want %v", rates[i], m.BaseRate*m.OuterFactor)
			}
		}
	}
}

// TestModelValidate asserts each model rejects unusable parameters.
func TestModelValidate(t *testing.T) {
	bad := []Model{
		Periodic{},
		Periodic{Rate: -1},
		Bursty{PeakRate: 0, OnMean: 1, OffMean: 1},
		Bursty{PeakRate: 1, OnMean: 0, OffMean: 1},
		Bursty{PeakRate: 1, OnMean: 1, OffMean: -1},
		Event{EventRate: 0, EventRadius: 1},
		Event{EventRate: 1, EventRadius: 0},
		Event{EventRate: 1, EventRadius: 1, BackgroundRate: -1},
		Heterogeneous{BaseRate: 0, OuterFactor: 1},
		Heterogeneous{BaseRate: 1, OuterFactor: 0},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%s %+v validated", m.Kind(), m)
		}
	}
}

// TestCircleIntersectionArea pins the closed form on its three regimes.
func TestCircleIntersectionArea(t *testing.T) {
	if got := circleIntersectionArea(5, 1, 2); got != 0 {
		t.Errorf("disjoint circles: %v", got)
	}
	if got, want := circleIntersectionArea(0.5, 1, 3), math.Pi; !closeTo(got, want, 1e-12) {
		t.Errorf("contained circle: %v, want %v", got, want)
	}
	// Two unit circles one radius apart: 2·acos(1/2) − sin(2·acos(1/2)) per
	// the lens formula ≈ 1.228369...
	want := 2*math.Pi/3 - math.Sqrt(3)/2
	if got := circleIntersectionArea(1, 1, 1); !closeTo(got, want, 1e-9) {
		t.Errorf("unit lens: %v, want %v", got, want)
	}
	if a, b := circleIntersectionArea(1.3, 0.8, 1.1), circleIntersectionArea(1.3, 1.1, 0.8); !closeTo(a, b, 1e-12) {
		t.Errorf("asymmetric: %v vs %v", a, b)
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
