package macmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
)

// allModels builds every protocol model against the default environment.
func allModels(t *testing.T) []Model {
	t.Helper()
	var models []Model
	for _, name := range Names() {
		m, err := New(name, Default())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		models = append(models, m)
	}
	return models
}

// Total returns the node's energy over the window in joules, summed
// through total in field order: the sum the scalar energy kernels are
// checked against.
func (c Components) Total() float64 {
	return total(c.CarrierSense, c.Tx, c.Rx, c.Overhear, c.SyncTx, c.SyncRx, c.Sleep)
}

// randomPoint samples a uniform point inside the model's bounds.
func randomPoint(m Model, rng *rand.Rand) opt.Vector {
	b := m.Bounds()
	x := make(opt.Vector, b.Dim())
	for i := range x {
		x[i] = b.Lo[i] + rng.Float64()*(b.Hi[i]-b.Lo[i])
	}
	return x
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := New("smac", Default()); err == nil {
		t.Error("New(smac) should fail")
	}
}

func TestNewRejectsBadEnv(t *testing.T) {
	bad := Default()
	bad.SampleRate = 0
	for _, name := range Names() {
		if _, err := New(name, bad); err == nil {
			t.Errorf("New(%q) accepted invalid env", name)
		}
	}
}

func TestModelMetadata(t *testing.T) {
	for _, m := range allModels(t) {
		specs := m.Params()
		b := m.Bounds()
		if len(specs) != b.Dim() {
			t.Errorf("%s: %d params but %d-dimensional bounds", m.Name(), len(specs), b.Dim())
		}
		if err := b.Validate(); err != nil {
			t.Errorf("%s: bounds invalid: %v", m.Name(), err)
		}
		for i, s := range specs {
			if s.Min != b.Lo[i] || s.Max != b.Hi[i] {
				t.Errorf("%s param %d: spec range [%v,%v] != bounds [%v,%v]",
					m.Name(), i, s.Min, s.Max, b.Lo[i], b.Hi[i])
			}
			if s.Name == "" || s.Unit == "" {
				t.Errorf("%s param %d: missing name or unit", m.Name(), i)
			}
		}
		registered := false
		for _, n := range Names() {
			if n == m.Name() {
				registered = true
			}
		}
		if !registered {
			t.Errorf("%s: not in Names()", m.Name())
		}
	}
}

func TestComponentsNonNegativeAndSum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range allModels(t) {
		depth := Default().Rings.Depth
		for trial := 0; trial < 200; trial++ {
			x := randomPoint(m, rng)
			for d := 1; d <= depth; d++ {
				c := m.EnergyAt(x, d)
				for name, v := range map[string]float64{
					"cs": c.CarrierSense, "tx": c.Tx, "rx": c.Rx,
					"ovr": c.Overhear, "stx": c.SyncTx, "srx": c.SyncRx, "sleep": c.Sleep,
				} {
					if v < 0 || math.IsNaN(v) {
						t.Fatalf("%s at %v ring %d: component %s = %v", m.Name(), x, d, name, v)
					}
				}
				sum := c.CarrierSense + c.Tx + c.Rx + c.Overhear + c.SyncTx + c.SyncRx + c.Sleep
				if math.Abs(sum-c.Total()) > 1e-15*math.Max(1, sum) {
					t.Fatalf("%s: Total() = %v != component sum %v", m.Name(), c.Total(), sum)
				}
			}
		}
	}
}

func TestEnergyIsBottleneckRing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, m := range allModels(t) {
		for trial := 0; trial < 50; trial++ {
			x := randomPoint(m, rng)
			if got, want := m.Energy(x), m.EnergyAt(x, 1).Total(); got != want {
				t.Fatalf("%s: Energy(%v) = %v, want ring-1 total %v", m.Name(), x, got, want)
			}
			// Ring 1 carries the most traffic, so it must dominate.
			for d := 2; d <= Default().Rings.Depth; d++ {
				if outer := m.EnergyAt(x, d).Total(); outer > m.Energy(x)+1e-12 {
					t.Fatalf("%s: ring-%d energy %v exceeds ring-1 energy %v", m.Name(), d, outer, m.Energy(x))
				}
			}
		}
	}
}

// TestEnergyKernelMatchesReport: Energy, the scalar kernel the solver
// calls at every point, returns exactly the bits of EnergyAt's report
// at the bottleneck ring. Both share one energy formula per model and
// one summation, so a formula or an addition order that drifts between
// them shows here. Every model is checked on perfect and on lossy links
// (attempts > 1), over a dense lattice of its bounds and their corners.
func TestEnergyKernelMatchesReport(t *testing.T) {
	lossy := Default()
	lossy.LinkPRR = 0.8
	if lossy.Attempts() <= 1 {
		t.Fatalf("lossy env charges %v attempts per hop, want more than 1", lossy.Attempts())
	}
	for _, env := range []Env{Default(), lossy} {
		ring := env.Flows().Bottleneck()
		for _, name := range Names() {
			m, err := New(name, env)
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			for _, x := range kernelPoints(m.Bounds()) {
				got, want := m.Energy(x), m.EnergyAt(x, ring).Total()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s (PRR %v) at %v: Energy = %v (%#x), EnergyAt(%d).Total() = %v (%#x)",
						name, env.LinkPRR, x, got, math.Float64bits(got), ring, want, math.Float64bits(want))
				}
			}
		}
	}
}

// kernelPoints spreads points over a 1-D or 2-D box: 257 along a line,
// or a 33×33 lattice, then the box's corners, which a lattice's last
// step need not hit exactly.
func kernelPoints(b opt.Bounds) []opt.Vector {
	axis := func(i, n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = b.Lo[i] + float64(j)/float64(n-1)*(b.Hi[i]-b.Lo[i])
		}
		return v
	}
	var pts []opt.Vector
	switch b.Dim() {
	case 1:
		for _, a := range axis(0, 257) {
			pts = append(pts, opt.Vector{a})
		}
		pts = append(pts, opt.Vector{b.Lo[0]}, opt.Vector{b.Hi[0]})
	case 2:
		for _, a := range axis(0, 33) {
			for _, c := range axis(1, 33) {
				pts = append(pts, opt.Vector{a, c})
			}
		}
		for _, a := range []float64{b.Lo[0], b.Hi[0]} {
			for _, c := range []float64{b.Lo[1], b.Hi[1]} {
				pts = append(pts, opt.Vector{a, c})
			}
		}
	default:
		panic("kernelPoints: models have one or two parameters")
	}
	return pts
}

func TestDelayPositiveAndFiniteEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range allModels(t) {
		for trial := 0; trial < 200; trial++ {
			x := randomPoint(m, rng)
			l := m.Delay(x)
			if l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
				t.Fatalf("%s: Delay(%v) = %v", m.Name(), x, l)
			}
		}
	}
}

// TestEnergyDelayConflict verifies the premise of the whole game: within
// each protocol there exist two configurations where one has lower
// energy and the other lower delay — the objectives genuinely conflict.
func TestEnergyDelayConflict(t *testing.T) {
	for _, m := range allModels(t) {
		b := m.Bounds()
		fast := b.Lo.Clone() // every parameter at its minimum: fastest
		slow := b.Hi.Clone()
		eFast, lFast := m.Energy(fast), m.Delay(fast)
		eSlow, lSlow := m.Energy(slow), m.Delay(slow)
		if !(lFast < lSlow) {
			t.Errorf("%s: delay should grow with the duty-cycle levers: fast %v, slow %v", m.Name(), lFast, lSlow)
		}
		if !(eSlow < eFast) {
			t.Errorf("%s: the slow configuration should save energy: fast %v J, slow %v J", m.Name(), eFast, eSlow)
		}
	}
}

// TestProtocolEnergyOrdering checks the paper's figure-range ordering at
// the fastest (delay-optimal corner) configuration: X-MAC < DMAC < LMAC.
func TestProtocolEnergyOrdering(t *testing.T) {
	byName := map[string]Model{}
	for _, m := range allModels(t) {
		byName[m.Name()] = m
	}
	e := func(name string) float64 {
		m := byName[name]
		return m.Energy(m.Bounds().Lo)
	}
	if !(e("xmac") < e("dmac") && e("dmac") < e("lmac")) {
		t.Errorf("energy ordering violated at fastest configs: xmac=%v dmac=%v lmac=%v",
			e("xmac"), e("dmac"), e("lmac"))
	}
}

func TestStructuralConstraintsSatisfiableInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, m := range allModels(t) {
		found := false
		for trial := 0; trial < 500 && !found; trial++ {
			x := randomPoint(m, rng)
			ok := true
			for _, c := range m.Structural() {
				if c.F(x) > 0 {
					ok = false
					break
				}
			}
			found = ok
		}
		if !found {
			t.Errorf("%s: no structurally feasible point found in 500 samples", m.Name())
		}
	}
}

func TestModelsAreStringers(t *testing.T) {
	for _, m := range allModels(t) {
		s, ok := m.(interface{ String() string })
		if !ok {
			t.Errorf("%s: model does not implement String()", m.Name())
			continue
		}
		if !strings.Contains(s.String(), m.Name()) {
			t.Errorf("String() = %q does not mention protocol %q", s.String(), m.Name())
		}
	}
}
