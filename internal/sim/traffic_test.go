package sim

import (
	"context"
	"testing"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

func trafficConfig(t *testing.T, m traffic.Model) Config {
	t.Helper()
	net, err := topology.Line(6, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Protocol: "xmac",
		Network:  net,
		Radio:    radio.CC2420(),
		Params:   opt.Vector{0.2},
		Traffic:  m,
		Payload:  32,
		Duration: 900,
		Seed:     4,
	}
}

// TestTrafficModelRun asserts a traffic-model-driven run generates
// exactly the packets of the model's schedule and delivers most of them.
func TestTrafficModelRun(t *testing.T) {
	cfg := trafficConfig(t, traffic.Bursty{PeakRate: 0.5, OnMean: 20, OffMean: 60})
	want := 0
	for i := 1; i < cfg.Network.N(); i++ {
		want += len(cfg.Traffic.Arrivals(cfg.Network, topology.NodeID(i), cfg.Seed, cfg.Duration))
	}
	if want == 0 {
		t.Fatal("schedule empty; pick a busier model")
	}
	res, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Generated() != want {
		t.Errorf("generated %d packets, schedule has %d", res.Metrics.Generated(), want)
	}
	if ratio := res.Metrics.DeliveryRatio(); ratio < 0.5 {
		t.Errorf("delivery ratio %v suspiciously low", ratio)
	}
}

// TestTrafficModelDeterminism asserts byte-level reproducibility of
// traffic-model runs: equal seeds yield identical results, different
// seeds do not.
func TestTrafficModelDeterminism(t *testing.T) {
	cfg := trafficConfig(t, traffic.Event{EventRate: 0.02, EventRadius: 2, BackgroundRate: 0.01})
	a, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Generated() != b.Metrics.Generated() || a.Metrics.Delivered() != b.Metrics.Delivered() ||
		a.Collisions != b.Collisions || a.Events != b.Events {
		t.Errorf("equal seeds diverged: %+v vs %+v", a.Metrics, b.Metrics)
	}
	for i := range a.Energy {
		if a.Energy[i] != b.Energy[i] {
			t.Errorf("node %d energy %v vs %v", i, a.Energy[i], b.Energy[i])
		}
	}
	cfg.Seed = 5
	c, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Metrics.Generated() == a.Metrics.Generated() && c.Events == a.Events {
		t.Error("different seeds produced an identical run")
	}
}

// TestTrafficValidate asserts Config.Validate rejects unusable traffic
// models.
func TestTrafficValidate(t *testing.T) {
	cfg := trafficConfig(t, traffic.Periodic{Rate: -1})
	if err := cfg.Validate(); err == nil {
		t.Error("invalid traffic model accepted")
	}
}
