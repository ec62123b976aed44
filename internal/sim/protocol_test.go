package sim

import (
	"context"
	"math"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// lineConfig builds a small chain scenario with moderate traffic so runs
// accumulate statistics quickly.
func lineConfig(t *testing.T, protocol string, params opt.Vector, hops int, rate, duration float64) Config {
	t.Helper()
	net, err := topology.Line(hops, 0.8)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	var tr traffic.Model // rate 0: no node samples
	if rate > 0 {
		tr = traffic.Periodic{Rate: rate}
	}
	return Config{
		Protocol: protocol,
		Network:  net,
		Radio:    radio.CC2420(),
		Params:   params,
		Traffic:  tr,
		Payload:  32,
		Duration: duration,
		Seed:     42,
	}
}

func TestConfigValidate(t *testing.T) {
	good := lineConfig(t, "xmac", opt.Vector{0.2}, 3, 0.01, 100)
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	cases := map[string]func(*Config){
		"unknown protocol": func(c *Config) { c.Protocol = "smac" },
		"wrong arity":      func(c *Config) { c.Params = opt.Vector{0.2, 0.3} },
		"nil network":      func(c *Config) { c.Network = nil },
		"bad radio":        func(c *Config) { c.Radio = radio.Radio{} },
		"negative param":   func(c *Config) { c.Params = opt.Vector{-1} },
		"zero duration":    func(c *Config) { c.Duration = 0 },
		"zero payload":     func(c *Config) { c.Payload = 0 },
	}
	for name, mutate := range cases {
		cfg := lineConfig(t, "xmac", opt.Vector{0.2}, 3, 0.01, 100)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestXMACDeliversOverMultipleHops(t *testing.T) {
	cfg := lineConfig(t, "xmac", opt.Vector{0.25}, 4, 0.02, 2000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Metrics.Generated() < 100 {
		t.Fatalf("only %d packets generated", res.Metrics.Generated())
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.95 {
		t.Errorf("delivery ratio %v below 0.95 (delivered %d/%d, dropped %d, collisions %d)",
			ratio, res.Metrics.Delivered(), res.Metrics.Generated(), res.Metrics.Dropped(), res.Collisions)
	}
	// Mean delay per hop should be near Tw/2 plus the handshake.
	perHop := res.Metrics.MeanDelay() / 4
	if perHop < 0.05 || perHop > 0.35 {
		t.Errorf("per-hop delay %v s implausible for Tw=0.25 (want roughly Tw/2)", perHop)
	}
}

func TestXMACIdleEnergyMatchesPollingCost(t *testing.T) {
	// No traffic: consumption must be dominated by the periodic poll.
	cfg := lineConfig(t, "xmac", opt.Vector{0.5}, 2, 0, 1000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	prof := radio.CC2420()
	// Expected poll duty: pollWindow/Tw with pollWindow ≈ strobe + gap +
	// 2 CCA ≈ 1.5 ms every 500 ms.
	perNode := res.Energy[1] / res.Duration
	ceiling := 0.01 * prof.PowerListen // duty must stay below 1%
	if perNode > ceiling {
		t.Errorf("idle power %v W exceeds %v W: polls too expensive", perNode, ceiling)
	}
	if perNode < prof.PowerSleep {
		t.Errorf("idle power %v W below sleep floor", perNode)
	}
}

func TestDMACWaveDelay(t *testing.T) {
	// T=1 s, µ=5 ms, 4 hops: delays must concentrate near T/2 + D·µ and
	// never exceed ~T + D·µ (a packet waits at most one frame).
	cfg := lineConfig(t, "dmac", opt.Vector{1.0, 0.005}, 4, 0.02, 2000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.95 {
		t.Errorf("delivery ratio %v below 0.95 (dropped %d, collisions %d)",
			ratio, res.Metrics.Dropped(), res.Collisions)
	}
	mean := res.Metrics.MeanDelay()
	want := 0.5 + 4*0.005
	if mean < want*0.5 || mean > want*1.8 {
		t.Errorf("mean delay %v s, analytic wave prediction %v s", mean, want)
	}
	// A packet sampled just before its slot, or one losing a contention
	// round, waits an extra frame: two frames bound the worst case.
	if max := res.Metrics.MaxDelay(); max > 2*1.0+4*0.005+0.2 {
		t.Errorf("max delay %v s exceeds two frames plus the wave", max)
	}
}

func TestDMACScheduleIsolation(t *testing.T) {
	// With one sender per depth and staggered slots, collisions must be
	// rare on a chain.
	cfg := lineConfig(t, "dmac", opt.Vector{0.5, 0.005}, 4, 0.05, 1000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Collisions > res.Metrics.Generated()/10 {
		t.Errorf("%d collisions for %d packets on a staggered chain", res.Collisions, res.Metrics.Generated())
	}
}

func TestLMACDeliversCollisionFree(t *testing.T) {
	cfg := lineConfig(t, "lmac", opt.Vector{8, 0.01}, 4, 0.02, 2000)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Collisions != 0 {
		t.Errorf("TDMA run suffered %d collisions", res.Collisions)
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.99 {
		t.Errorf("delivery ratio %v below 0.99 (dropped %d)", ratio, res.Metrics.Dropped())
	}
	// Per-hop delay is bounded by one frame (80 ms).
	if mean := res.Metrics.MeanDelay(); mean > 4*0.08+0.08 {
		t.Errorf("mean delay %v s exceeds the frame bound", mean)
	}
}

func TestLMACScheduleRejectsTinyFrame(t *testing.T) {
	cfg := lineConfig(t, "lmac", opt.Vector{1, 0.01}, 4, 0.02, 100)
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Error("1-slot frame accepted on a multi-node chain")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	for _, proto := range []string{"xmac", "dmac", "lmac"} {
		var params opt.Vector
		switch proto {
		case "xmac":
			params = opt.Vector{0.2}
		case "dmac":
			params = opt.Vector{0.5, 0.005}
		case "lmac":
			params = opt.Vector{8, 0.01}
		}
		a, err := RunContext(context.Background(), lineConfig(t, proto, params, 3, 0.05, 300))
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		b, err := RunContext(context.Background(), lineConfig(t, proto, params, 3, 0.05, 300))
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if a.Metrics.Delivered() != b.Metrics.Delivered() ||
			math.Abs(a.Metrics.MeanDelay()-b.Metrics.MeanDelay()) > 1e-12 ||
			a.Events != b.Events {
			t.Errorf("%s: same seed produced different runs", proto)
		}
		for i := range a.Energy {
			if math.Abs(a.Energy[i]-b.Energy[i]) > 1e-12 {
				t.Errorf("%s: node %d energy differs between same-seed runs", proto, i)
			}
		}
	}
}

func TestEnergyAccountingCoversWholeRun(t *testing.T) {
	cfg := lineConfig(t, "xmac", opt.Vector{0.2}, 3, 0.05, 500)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	prof := radio.CC2420()
	for i, e := range res.Energy {
		floor := cfg.Duration * prof.PowerSleep * 0.9
		ceil := cfg.Duration * prof.PowerRx * 1.1
		if e < floor || e > ceil {
			t.Errorf("node %d energy %v J outside physical envelope [%v, %v]", i, e, floor, ceil)
		}
	}
}

func TestDutyCycleDiagnostics(t *testing.T) {
	cfg := lineConfig(t, "xmac", opt.Vector{0.5}, 2, 0, 500)
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// dutyCycle is the fraction of the run node id spent with the radio
	// active (listen, receive or transmit).
	dutyCycle := func(r *Result, id int) float64 {
		return (r.ListenTime[id] + r.TxTime[id]) / r.Duration
	}
	for i := range res.Energy {
		dc := dutyCycle(res, i)
		if dc <= 0 || dc > 0.05 {
			t.Errorf("node %d idle duty cycle %v outside (0, 5%%]", i, dc)
		}
	}
	// Duty cycle scales with the polling rate: halve the interval,
	// roughly double the duty cycle.
	fast, err := RunContext(context.Background(), lineConfig(t, "xmac", opt.Vector{0.25}, 2, 0, 500))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	slowDC := dutyCycle(res, 1)
	fastDC := dutyCycle(fast, 1)
	if fastDC < slowDC*1.5 {
		t.Errorf("duty cycle should grow with the poll rate: %v at Tw=0.5 vs %v at Tw=0.25", slowDC, fastDC)
	}
}

func TestMetricsQuantiles(t *testing.T) {
	m := &Metrics{}
	for _, d := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		m.recordDelivery(1, d)
	}
	if q := m.QuantileDelay(0.5); q != 5 {
		t.Errorf("median = %v, want 5", q)
	}
	if q := m.QuantileDelay(1.0); q != 10 {
		t.Errorf("p100 = %v, want 10", q)
	}
	empty := &Metrics{}
	if !math.IsNaN(empty.MeanDelay()) || !math.IsNaN(empty.QuantileDelay(0.5)) {
		t.Error("empty metrics should yield NaN delays")
	}
	if empty.DeliveryRatio() != 0 {
		t.Error("idle run should report delivery ratio 0 (the SimReport convention)")
	}
}
