package channel

import (
	"math"
	"math/rand"
	"testing"

	"github.com/edmac-project/edmac/internal/topology"
)

// TestLinkSeedPinned pins the per-link seed derivation: link tables and
// reception draws must reproduce across releases, so any change to
// LinkSeed/DirectedLinkSeed is a breaking change this test makes loud.
func TestLinkSeedPinned(t *testing.T) {
	got := []int64{
		LinkSeed(0, 0, 1),
		LinkSeed(1, 0, 1),
		LinkSeed(1, 2, 7),
		LinkSeed(-42, 3, 5),
		DirectedLinkSeed(1, 0, 1),
		DirectedLinkSeed(1, 1, 0),
	}
	// Literal values recorded at introduction; a mismatch means the
	// derivation changed and every committed link table with it.
	want := []int64{
		-7995527694508729151,
		-2152535657050944081,
		8701669776456827102,
		-4178316138370766858,
		-6411193824288604561,
		-3051150022078718988,
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("seed %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestDrawStream(t *testing.T) {
	// In-range, deterministic, and decorrelated across seeds.
	a := NewDrawStream(7)
	b := NewDrawStream(7)
	c := NewDrawStream(8)
	differs := false
	for i := 0; i < 1000; i++ {
		x, y, z := a.Float64(), b.Float64(), c.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("draw %d = %v outside [0, 1)", i, x)
		}
		if x != y {
			t.Fatalf("equal seeds diverged at draw %d", i)
		}
		if x != z {
			differs = true
		}
	}
	if !differs {
		t.Error("different seeds produced identical streams")
	}
	// Roughly uniform: the mean of many draws sits near 1/2.
	s := NewDrawStream(42)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		sum += s.Float64()
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Errorf("mean of 10k draws = %v, want ≈ 0.5", mean)
	}
}

func TestLinkSeedProperties(t *testing.T) {
	// Symmetric in the endpoints: link quality belongs to the path.
	if LinkSeed(9, 2, 5) != LinkSeed(9, 5, 2) {
		t.Error("LinkSeed not symmetric")
	}
	// Directed streams differ between the two directions and from the
	// undirected seed.
	if DirectedLinkSeed(9, 2, 5) == DirectedLinkSeed(9, 5, 2) {
		t.Error("DirectedLinkSeed equal for both directions")
	}
	if DirectedLinkSeed(9, 2, 5) == LinkSeed(9, 2, 5) {
		t.Error("DirectedLinkSeed collides with LinkSeed")
	}
	// Distinct links and distinct bases decorrelate.
	if LinkSeed(9, 2, 5) == LinkSeed(9, 2, 6) || LinkSeed(9, 2, 5) == LinkSeed(10, 2, 5) {
		t.Error("LinkSeed collides across links or bases")
	}
}

func TestModelValidation(t *testing.T) {
	valid := []Model{
		Perfect{},
		Bernoulli{PRR: 0.5},
		Bernoulli{PRR: 1},
		Shadowing{},
		Shadowing{PathLossExp: 2.5, SigmaDB: 6, EdgeMarginDB: 3, WidthDB: 2},
	}
	for _, m := range valid {
		if err := m.Validate(); err != nil {
			t.Errorf("%#v: unexpected error %v", m, err)
		}
	}
	invalid := []Model{
		Bernoulli{},
		Bernoulli{PRR: -0.1},
		Bernoulli{PRR: 1.1},
		Shadowing{PathLossExp: 9},
		Shadowing{SigmaDB: 30},
		Shadowing{WidthDB: -1},
	}
	for _, m := range invalid {
		if err := m.Validate(); err == nil {
			t.Errorf("%#v: validation passed, want error", m)
		}
	}
	if _, err := New("nonsense", Bernoulli{}, Shadowing{}); err == nil {
		t.Error("New accepted an unknown kind")
	}
	if m, err := New("", Bernoulli{}, Shadowing{}); err != nil || m != (Perfect{}) {
		t.Errorf("New(\"\") = %v, %v; want the perfect channel", m, err)
	}
}

func TestShadowingPRRShape(t *testing.T) {
	m := Shadowing{}.withDefaults()
	m.SigmaDB = 1e-12 // isolate the path-loss curve (0 would select the default)
	rng := rand.New(rand.NewSource(1))
	last := 2.0
	for _, d := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		prr, gain := m.Link(d, rng)
		if prr <= 0 || prr > 1 {
			t.Fatalf("prr(%v) = %v outside (0, 1]", d, prr)
		}
		if prr > last {
			t.Errorf("prr(%v) = %v not monotone non-increasing in distance", d, prr)
		}
		last = prr
		if d < 1 && gain <= m.EdgeMarginDB {
			t.Errorf("gain(%v) = %v should exceed the edge margin %v", d, gain, m.EdgeMarginDB)
		}
	}
	// Short links are near-perfect, edge links carry the edge margin.
	if prr, _ := m.Link(0.2, rng); prr < 0.999 {
		t.Errorf("short-link prr = %v, want near 1", prr)
	}
	wantEdge := 1 / (1 + math.Pow(10, -m.EdgeMarginDB/m.WidthDB))
	if prr, _ := m.Link(1.0, rng); math.Abs(prr-wantEdge) > 1e-9 {
		t.Errorf("edge prr = %v, want %v", prr, wantEdge)
	}
}

func buildLine(t *testing.T, n int) *topology.Network {
	t.Helper()
	net, err := topology.Line(n, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestApplyPerfectStaysLossless(t *testing.T) {
	net := buildLine(t, 4)
	if err := Apply(Perfect{}, net, 3); err != nil {
		t.Fatal(err)
	}
	if net.Lossy() {
		t.Error("perfect channel marked the network lossy")
	}
	if prr := net.LinkPRR(0, 1); prr != 1 {
		t.Errorf("LinkPRR = %v after perfect apply, want 1", prr)
	}
	if net.MeanLinkPRR() != 1 {
		t.Errorf("MeanLinkPRR = %v after perfect apply, want exactly 1", net.MeanLinkPRR())
	}
	// The capture comparison still gets path-loss gains to work with:
	// sub-range links sit above the 0 dB unit-disk-edge reference, and
	// equal-length links get equal gains.
	gain := net.LinkGainDB(0, 1) // 0.8 range units
	if gain <= 0 {
		t.Errorf("sub-range link gain %v, want positive (above the edge reference)", gain)
	}
	if other := net.LinkGainDB(1, 2); other != gain {
		t.Errorf("equal-length links got unequal gains: %v vs %v", gain, other)
	}
}

func TestApplyBernoulli(t *testing.T) {
	net := buildLine(t, 4)
	if err := Apply(Bernoulli{PRR: 0.7}, net, 3); err != nil {
		t.Fatal(err)
	}
	if !net.Lossy() {
		t.Fatal("network not marked lossy")
	}
	for a := 0; a < net.N(); a++ {
		for _, b := range net.Neighbors(topology.NodeID(a)) {
			if prr := net.LinkPRR(topology.NodeID(a), b); prr != 0.7 {
				t.Errorf("LinkPRR(%d,%d) = %v, want 0.7", a, b, prr)
			}
		}
	}
	if got := net.MeanLinkPRR(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("MeanLinkPRR = %v, want 0.7", got)
	}
}

// TestApplyDeterministic asserts the pinned determinism contract: equal
// (model, seed) stamp byte-identical link tables, symmetric per link,
// and a different seed moves the shadowing draws.
func TestApplyDeterministic(t *testing.T) {
	stamp := func(seed int64) *topology.Network {
		net := buildLine(t, 6)
		if err := Apply(Shadowing{}, net, seed); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := stamp(11), stamp(11)
	other := stamp(12)
	differs := false
	for i := 0; i < a.N(); i++ {
		id := topology.NodeID(i)
		for _, nb := range a.Neighbors(id) {
			if a.LinkPRR(id, nb) != b.LinkPRR(id, nb) || a.LinkGainDB(id, nb) != b.LinkGainDB(id, nb) {
				t.Fatalf("link %d->%d differs across equal seeds", id, nb)
			}
			if a.LinkPRR(id, nb) != a.LinkPRR(nb, id) {
				t.Fatalf("link %d<->%d asymmetric", id, nb)
			}
			if a.LinkPRR(id, nb) != other.LinkPRR(id, nb) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("shadowing draws identical across different seeds")
	}
}
