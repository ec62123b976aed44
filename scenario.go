package edmac

import (
	"encoding/json"
	"fmt"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
)

// ScenarioSpec is a declarative deployment description: a named network
// shape (ring, random disk, grid, line/tunnel, two-tier cluster) plus a
// traffic model (periodic, bursty on-off, spatially-correlated events,
// heterogeneous per-node rates), parsed from versioned JSON. One spec
// drives both sides of the framework — the analytic game via Scenario()
// and the packet-level simulator via SimulateRequest.Spec — so the two
// views always describe the same deployment.
//
// Specs are immutable values; the zero ScenarioSpec is invalid and every
// constructor validates before returning.
type ScenarioSpec struct {
	spec scenario.Spec
}

// LoadScenario reads and validates a JSON scenario spec from disk.
func LoadScenario(path string) (ScenarioSpec, error) {
	s, err := scenario.Load(path)
	if err != nil {
		return ScenarioSpec{}, err
	}
	return ScenarioSpec{spec: s}, nil
}

// BuiltinScenarios returns the built-in scenario registry in
// presentation order: a curated matrix of deployment shapes × workloads
// covering every topology generator and traffic model.
func BuiltinScenarios() []ScenarioSpec {
	specs := scenario.Builtins()
	out := make([]ScenarioSpec, len(specs))
	for i, s := range specs {
		out[i] = ScenarioSpec{spec: s}
	}
	return out
}

// BuiltinScenario returns the named built-in scenario.
func BuiltinScenario(name string) (ScenarioSpec, bool) {
	s, ok := scenario.ByName(name)
	if !ok {
		return ScenarioSpec{}, false
	}
	return ScenarioSpec{spec: s}, true
}

// Name returns the scenario's registry name.
func (sp ScenarioSpec) Name() string { return sp.spec.Name }

// Description returns the scenario's one-line summary.
func (sp ScenarioSpec) Description() string { return sp.spec.Description }

// TopologyKind returns the topology family ("ring", "disk", "grid",
// "line", "cluster").
func (sp ScenarioSpec) TopologyKind() string { return sp.spec.Topology.Kind }

// TrafficKind returns the traffic model family ("periodic", "bursty",
// "event", "heterogeneous", or "phased" for a version-2 non-stationary
// composition).
func (sp ScenarioSpec) TrafficKind() string { return sp.spec.TrafficKind() }

// Phased reports whether the scenario's workload is a version-2 phase
// composition — the scenarios an adaptive suite re-bargains per phase.
func (sp ScenarioSpec) Phased() bool { return len(sp.spec.Phases) > 0 }

// ChannelKind returns the link-quality family ("perfect", "bernoulli",
// "shadowing"); scenarios without a channel block are "perfect".
func (sp ScenarioSpec) ChannelKind() string { return sp.spec.ChannelKind() }

// MarshalJSON encodes the spec compactly, so specs can ride inside
// larger request documents (SuiteRequest, edserve payloads) and inside
// the Client's canonical cache keys.
func (sp ScenarioSpec) MarshalJSON() ([]byte, error) {
	if err := sp.valid(); err != nil {
		return nil, err
	}
	return json.Marshal(sp.spec)
}

// UnmarshalJSON decodes and validates a scenario spec. Unknown fields
// are rejected so typos fail loudly.
func (sp *ScenarioSpec) UnmarshalJSON(data []byte) error {
	s, err := scenario.Parse(data)
	if err != nil {
		return err
	}
	sp.spec = s
	return nil
}

// valid reports whether the spec was built by a constructor.
func (sp ScenarioSpec) valid() error {
	if sp.spec.Name == "" {
		return fmt.Errorf("edmac: zero ScenarioSpec; use LoadScenario, BuiltinScenario or json.Unmarshal")
	}
	return nil
}

// Scenario maps the spec onto the analytic ring abstraction the
// closed-form models need: the materialized network's BFS depth becomes
// the ring depth D, its rounded mean degree the density C, and the
// traffic model's mean per-node rate the sampling rate. This is the
// bridge that lets the bargaining game pick MAC parameters for any
// deployment shape, which the simulator then stresses on the explicit
// network.
func (sp ScenarioSpec) Scenario() (Scenario, error) {
	if err := sp.valid(); err != nil {
		return Scenario{}, err
	}
	m, err := sp.spec.Materialize()
	if err != nil {
		return Scenario{}, err
	}
	return analyticScenarioOf(m), nil
}

// analyticScenarioOf is the one place a materialized scenario collapses
// to the analytic ring Scenario — ScenarioSpec.Scenario() and the suite
// runner must agree on this mapping. Link quality collapses the same
// way the topology does: the network's mean link PRR becomes the ring
// model's homogeneous per-hop PRR (exactly 1, i.e. unset, for perfect
// channels, keeping legacy scenarios bit-identical).
func analyticScenarioOf(m *scenario.Materialized) Scenario {
	ring := m.EquivalentRing()
	s := Scenario{
		Depth:          ring.Depth,
		Density:        ring.Density,
		SampleInterval: 1 / m.MeanRate(),
		Window:         m.Spec.Window,
		Payload:        m.Spec.Payload,
		Radio:          m.Spec.Radio,
	}
	if prr := m.Network.MeanLinkPRR(); prr < 1 {
		s.LinkPRR = prr
	}
	return s
}

// spec spells the ring scenario out as its equivalent declarative spec,
// the deployment Simulate and Batch run for it: the ring topology,
// periodic traffic at the sampling rate the analytic models see, the
// scenario's radio, payload and window, and, for a LinkPRR below 1, a
// Bernoulli channel at that PRR, which analyticScenarioOf reads back as
// the network's mean link PRR. The scenario is validated first, so an
// invalid one fails as it does on the analytic side.
func (s Scenario) spec() (ScenarioSpec, error) {
	env, err := s.env()
	if err != nil {
		return ScenarioSpec{}, err
	}
	sp := scenario.Spec{
		SpecVersion: scenario.Version,
		Name:        "ring-scenario",
		Topology:    scenario.TopologySpec{Kind: "ring", Depth: s.Depth, Density: s.Density},
		Traffic:     scenario.TrafficSpec{Kind: "periodic", Rate: env.SampleRate},
		Radio:       s.Radio,
		Payload:     s.Payload,
		Window:      s.Window,
	}
	if s.LinkPRR > 0 && s.LinkPRR < 1 {
		sp.Channel = &scenario.ChannelSpec{Model: "bernoulli", PRR: s.LinkPRR}
	}
	return ScenarioSpec{spec: sp}, nil
}

// simConfigOf maps a materialized spec and a parameter vector onto the
// simulator's config — the one place the two vocabularies meet, shared
// by Simulate, Batch and the suite runner. The spec's version-4 failure
// blocks become the fault configuration; a failure-free spec leaves
// Failures and Battery nil, which keeps the simulator on its draw-free
// fixed-topology path.
func simConfigOf(spec scenario.Spec, mat *scenario.Materialized, p Protocol, params []float64, duration float64, seed int64) sim.Config {
	capture, captureDB := spec.CaptureConfig()
	cfg := sim.Config{
		Protocol:  string(p),
		Network:   mat.Network,
		Radio:     mat.Radio,
		Params:    opt.Vector(append([]float64(nil), params...)),
		Traffic:   mat.Traffic,
		Payload:   spec.Payload,
		Duration:  duration,
		Seed:      seed,
		Capture:   capture,
		CaptureDB: captureDB,
	}
	if f := spec.Failures; f != nil {
		cfg.Failures = &sim.FailureConfig{MTBF: f.MTBF, MTTR: f.MTTR}
		for _, ev := range f.Events {
			cfg.Failures.Events = append(cfg.Failures.Events, sim.FailureEvent{
				Node:     topology.NodeID(ev.Node),
				At:       ev.At,
				Duration: ev.Duration,
			})
		}
	}
	if b := spec.Battery; b != nil {
		cfg.Battery = &sim.BatteryConfig{Capacity: b.CapacityJ}
	}
	return cfg
}
