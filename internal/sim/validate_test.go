package sim

import (
	"context"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// The cross-validation experiments: run each protocol at packet level on
// the deterministic ring placement and compare measured bottleneck
// energy and outer-ring delay against the analytic model at the same
// parameter vector. The models are deliberately coarse (ring-averaged
// traffic, no collisions, idealized handshakes), so agreement is
// asserted within a multiplicative band rather than a tolerance.
const validationBand = 2.5

// validationEnv is a small, busier-than-default scenario so a simulated
// half hour accumulates meaningful statistics. The rate is per-protocol:
// the analytic models assume collision-free low-rate operation, so each
// protocol is validated inside its stable regime (DMAC's single shared
// transmit slot per ring and X-MAC's long strobe trains saturate the
// channel at rates the other protocols tolerate).
func validationEnv(rate float64) macmodel.Env {
	env := macmodel.Default()
	env.Rings = topology.RingModel{Depth: 3, Density: 4}
	env.SampleRate = rate
	return env
}

func validationNet(t *testing.T, env macmodel.Env) *topology.Network {
	t.Helper()
	net, err := topology.Rings(env.Rings)
	if err != nil {
		t.Fatalf("Rings: %v", err)
	}
	return net
}

// checkBand asserts measured/predicted within the validation band.
func checkBand(t *testing.T, what string, measured, predicted float64) {
	t.Helper()
	if math.IsNaN(measured) || measured <= 0 {
		t.Fatalf("%s: measurement %v unusable (predicted %v)", what, measured, predicted)
	}
	ratio := measured / predicted
	if ratio > validationBand || ratio < 1/validationBand {
		t.Errorf("%s: measured %v vs predicted %v (ratio %.2f outside [%.2f, %.2f])",
			what, measured, predicted, ratio, 1/validationBand, validationBand)
	} else {
		t.Logf("%s: measured %v vs predicted %v (ratio %.2f)", what, measured, predicted, ratio)
	}
}

// minDelivery is the mean delivery ratio below which a validation run
// is too lossy for a meaningful comparison.
const minDelivery = 0.9

// validate simulates x at rate for duration on the validation rings,
// once per seed, and checks the means over the seeds: the delivery
// ratio must reach minDelivery, and the bottleneck energy and the
// outer-ring delay must fall inside the validation band around the
// model's.
func validate(t *testing.T, protocol string, x opt.Vector, rate, duration float64, seeds ...int64) {
	t.Helper()
	env := validationEnv(rate)
	net := validationNet(t, env)
	model, err := macmodel.New(protocol, env)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	outer := env.Rings.Depth
	var delivery, energy, delay float64
	var collisions, dropped int
	for _, seed := range seeds {
		res, err := RunContext(context.Background(), Config{
			Protocol: protocol,
			Network:  net,
			Radio:    env.Radio,
			Params:   x,
			Traffic:  traffic.Periodic{Rate: env.SampleRate},
			Payload:  env.Payload,
			Duration: duration,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		delivery += res.Metrics.DeliveryRatio()
		energy += res.MeanRingEnergyPerWindow(net, 1, env.Window)
		delay += res.Metrics.MeanDelayFrom(func(id topology.NodeID) bool { return net.Ring(id) == outer })
		collisions += res.Collisions
		dropped += res.Metrics.Dropped()
	}
	n := float64(len(seeds))
	if ratio := delivery / n; ratio < minDelivery {
		t.Fatalf("mean delivery ratio %v too low for a meaningful comparison (collisions %d, dropped %d)",
			ratio, collisions, dropped)
	}
	checkBand(t, protocol+" bottleneck energy/window", energy/n, model.Energy(x))
	checkBand(t, protocol+" outer-ring delay", delay/n, model.Delay(x))
}

func TestValidateXMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs take seconds")
	}
	validate(t, "xmac", opt.Vector{0.25}, 1.0/120, 1800, 7)
	// BenchmarkSimulatorEventRate's configuration, strobe-heavy: a
	// 300 s run is noisy per seed, so judge the mean of ten.
	validate(t, "xmac", opt.Vector{0.5}, 1.0/120, 300, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
}

func TestValidateDMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs take seconds")
	}
	// Each ring shares a single transmit slot per frame, so DMAC needs a
	// lower offered load than the others to stay collision-free.
	validate(t, "dmac", opt.Vector{1.0, 0.005}, 1.0/600, 3600, 7)
}

func TestValidateBMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs take seconds")
	}
	// Full-interval preambles occupy the channel heavily; keep the rate
	// low enough for the collision-free analytic model to apply.
	validate(t, "bmac", opt.Vector{0.2}, 1.0/600, 3600, 7)
}

func TestValidateLMAC(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs take seconds")
	}
	env := validationEnv(1.0 / 120)
	net := validationNet(t, env)
	// Use the smallest schedulable frame so the analytic "listen to all
	// control sections" assumption matches the occupied-slot reality.
	slots := net.MinSlots()
	validate(t, "lmac", opt.Vector{float64(slots), 0.02}, 1.0/120, 1800, 7)
}

// TestValidationEnergyOrdering runs the protocols at operating points
// with matched ~2 s end-to-end delay and checks, independently of the
// analytic models, the trade-off structure behind the paper's figures:
// X-MAC's preamble-sampling cost is traffic-proportional (long strobe
// trains per relayed packet), so it loses to the schedule-based
// protocols at moderate load and wins in the paper's very-low-rate
// regime, while DMAC's staggered schedule stays cheapest throughout.
func TestValidationEnergyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("validation runs take seconds")
	}
	measure := func(protocol string, rate float64, x opt.Vector) float64 {
		env := validationEnv(rate)
		net := validationNet(t, env)
		res, err := RunContext(context.Background(), Config{
			Protocol: protocol,
			Network:  net,
			Radio:    env.Radio,
			Params:   x,
			Traffic:  traffic.Periodic{Rate: env.SampleRate},
			Payload:  env.Payload,
			Duration: 900,
			Seed:     11,
		})
		if err != nil {
			t.Fatalf("%s: %v", protocol, err)
		}
		return res.MeanRingEnergyPerWindow(net, 1, env.Window)
	}
	env := validationEnv(1.0 / 600)
	net := validationNet(t, env)
	depth := float64(env.Rings.Depth)
	slots := net.MinSlots()

	// Configurations targeting L ≈ 2 s in each protocol's delay model.
	xmacCfg := opt.Vector{2 * (2/depth - 0.003)}
	dmacCfg := opt.Vector{2 * (2 - depth*0.005), 0.005}
	lmacCfg := opt.Vector{float64(slots), 2 * 2 / depth / float64(slots)}

	// Moderate load: schedule-based protocols beat preamble sampling.
	xmacMid := measure("xmac", 1.0/600, xmacCfg)
	dmacMid := measure("dmac", 1.0/600, dmacCfg)
	lmacMid := measure("lmac", 1.0/600, lmacCfg)
	if !(dmacMid < lmacMid && dmacMid < xmacMid) {
		t.Errorf("moderate load: dmac %v should undercut xmac %v and lmac %v", dmacMid, xmacMid, lmacMid)
	}

	// Very low rate (the paper's regime): X-MAC undercuts LMAC, whose
	// control-tracking floor does not amortize away.
	xmacLow := measure("xmac", 1.0/7200, xmacCfg)
	lmacLow := measure("lmac", 1.0/7200, lmacCfg)
	if !(xmacLow < lmacLow) {
		t.Errorf("low rate: xmac %v should undercut lmac %v", xmacLow, lmacLow)
	}
	// And X-MAC's own cost must drop with the rate — the sensitivity
	// that drives the crossover.
	if !(xmacLow < xmacMid/2) {
		t.Errorf("xmac energy should scale with traffic: low-rate %v vs moderate %v", xmacLow, xmacMid)
	}
}
