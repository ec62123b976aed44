// Package scenario turns declarative, versioned JSON deployment specs
// into the concrete objects the rest of the module consumes: an explicit
// topology.Network, a traffic.Model with its exact per-node flows, and
// the radio/accounting context. A spec is the single source of truth a
// scenario suite cell, an analytic model and a simulation run all share,
// so the three views can never drift apart.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/lazyrand"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// Version is the newest spec schema version this package writes.
// Version-4 specs add failure dynamics: an optional `failures` block
// injects node churn (or an explicit crash schedule) and an optional
// `battery` block gives every non-sink node a finite energy store, plus
// the "on-death" adaptation mode for degradation-aware re-bargaining.
// Version-3 specs add link realism: an optional `channel` block selects
// a lossy link-quality model (bernoulli or log-normal shadowing) and
// the capture effect. Version-2 specs add non-stationary workloads: a
// `phases` array of consecutive traffic windows and an optional
// `adaptation` block selecting how suites play them. Version-1 through
// -3 specs remain readable unchanged.
const Version = 4

// minVersion is the oldest spec schema version still accepted.
const minVersion = 1

// Spec is one declarative scenario: a named deployment shape plus its
// workload. The zero values of optional fields select nothing — every
// kind documents which fields it requires.
type Spec struct {
	// SpecVersion is the schema version; Parse rejects versions outside
	// [minVersion, Version].
	SpecVersion int `json:"version"`
	// Name identifies the scenario (registry key; lowercase-kebab).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`
	// Seed drives topology randomness (random generators resample from
	// it deterministically). Traffic randomness is seeded per run, not
	// here.
	Seed int64 `json:"seed"`
	// Topology describes the network shape.
	Topology TopologySpec `json:"topology"`
	// Traffic describes a stationary workload. Exactly one of Traffic
	// and Phases must be set.
	Traffic TrafficSpec `json:"traffic,omitzero"`
	// Phases (version 2) composes a non-stationary workload from
	// consecutive stationary windows; at least two are required.
	Phases []PhaseSpec `json:"phases,omitempty"`
	// Adaptation (version 2) selects how a suite plays a phased
	// scenario; nil means static.
	Adaptation *AdaptationSpec `json:"adaptation,omitempty"`
	// Channel (version 3) selects the link-quality model; nil keeps the
	// perfect unit-disk channel.
	Channel *ChannelSpec `json:"channel,omitempty"`
	// Failures (version 4) injects node crashes and recoveries; nil
	// keeps every node alive.
	Failures *FailureSpec `json:"failures,omitempty"`
	// Battery (version 4) gives every non-sink node a finite energy
	// store; nil means unlimited energy.
	Battery *BatterySpec `json:"battery,omitempty"`
	// Radio names the transceiver profile ("cc2420", "cc1101").
	Radio string `json:"radio"`
	// Payload is the application payload in bytes.
	Payload int `json:"payload"`
	// Window is the energy-accounting window in seconds.
	Window float64 `json:"window"`
}

// PhaseSpec is one window of a version-2 phased workload.
type PhaseSpec struct {
	// Name labels the phase in reports (optional).
	Name string `json:"name,omitempty"`
	// Traffic is the stationary workload active during the phase.
	Traffic TrafficSpec `json:"traffic"`
	// Duration is the phase length in seconds.
	Duration float64 `json:"duration"`
}

// Adaptation modes: Static plays one bargain from the long-run mean
// rate; PerPhase re-plays the bargain at every phase boundary from that
// phase's own mean rates (the online re-bargaining runtime); OnDeath
// (version 4) re-solves the bargain over the surviving topology at
// every node-death or recovery epoch of a fault-injected scenario —
// PerPhase on a fault-injected phased scenario implies the same
// death-epoch behaviour.
const (
	AdaptStatic   = "static"
	AdaptPerPhase = "per-phase"
	AdaptOnDeath  = "on-death"
)

// AdaptationSpec selects how suites play a phased scenario.
type AdaptationSpec struct {
	// Mode is "static", "per-phase" or "on-death".
	Mode string `json:"mode"`
}

// validAdaptation reports whether the block is usable.
func (a *AdaptationSpec) valid() error {
	switch a.Mode {
	case AdaptStatic, AdaptPerPhase, AdaptOnDeath:
		return nil
	default:
		return fmt.Errorf("scenario: unknown adaptation mode %q (want %q, %q or %q)",
			a.Mode, AdaptStatic, AdaptPerPhase, AdaptOnDeath)
	}
}

// Failure models: churn draws alternating exponential up/down times per
// node from deterministic per-node streams; schedule replays explicit
// crash events.
const (
	FailChurn    = "churn"
	FailSchedule = "schedule"
)

// FailureSpec (version 4) declares a scenario's failure process. The
// sink never fails.
type FailureSpec struct {
	// Model is "churn" or "schedule".
	Model string `json:"model"`
	// MTBF and MTTR parameterize "churn": mean up time and mean down
	// time in seconds. MTTR 0 makes every crash permanent.
	MTBF float64 `json:"mtbf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// Events parameterize "schedule": the explicit crash list.
	Events []FailureEventSpec `json:"events,omitempty"`
}

// FailureEventSpec is one explicit crash of a "schedule" failure model.
type FailureEventSpec struct {
	// Node is the crashing node index (never 0, the sink).
	Node int `json:"node"`
	// At is the crash instant in seconds.
	At float64 `json:"at"`
	// Duration is the outage length in seconds; 0 means permanent.
	Duration float64 `json:"duration,omitempty"`
}

// valid reports whether the failure block is usable.
func (f *FailureSpec) valid() error {
	switch f.Model {
	case FailChurn:
		if len(f.Events) > 0 {
			return fmt.Errorf("scenario: churn failures take no event list")
		}
		if f.MTBF <= 0 || math.IsNaN(f.MTBF) || math.IsInf(f.MTBF, 0) {
			return fmt.Errorf("scenario: churn MTBF %v must be positive and finite", f.MTBF)
		}
		if f.MTTR < 0 || math.IsNaN(f.MTTR) || math.IsInf(f.MTTR, 0) {
			return fmt.Errorf("scenario: churn MTTR %v must be non-negative and finite", f.MTTR)
		}
		return nil
	case FailSchedule:
		if len(f.Events) == 0 {
			return fmt.Errorf("scenario: schedule failures need at least one event")
		}
		if f.MTBF != 0 || f.MTTR != 0 {
			return fmt.Errorf("scenario: schedule failures take no MTBF/MTTR")
		}
		for i, ev := range f.Events {
			if ev.Node <= 0 {
				return fmt.Errorf("scenario: failure event %d: node %d must be positive (the sink cannot crash)", i, ev.Node)
			}
			if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
				return fmt.Errorf("scenario: failure event %d: crash time %v must be non-negative and finite", i, ev.At)
			}
			if ev.Duration < 0 || math.IsNaN(ev.Duration) || math.IsInf(ev.Duration, 0) {
				return fmt.Errorf("scenario: failure event %d: duration %v must be non-negative and finite", i, ev.Duration)
			}
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown failure model %q (want %q or %q)", f.Model, FailChurn, FailSchedule)
	}
}

// BatterySpec (version 4) gives every non-sink node a finite energy
// store; a node dies permanently when its consumption reaches the
// capacity. The sink is mains-powered.
type BatterySpec struct {
	// CapacityJ is the per-node energy budget in joules.
	CapacityJ float64 `json:"capacity_j"`
}

// valid reports whether the battery block is usable.
func (b *BatterySpec) valid() error {
	if b.CapacityJ <= 0 || math.IsNaN(b.CapacityJ) || math.IsInf(b.CapacityJ, 0) {
		return fmt.Errorf("scenario: battery capacity %v J must be positive and finite", b.CapacityJ)
	}
	return nil
}

// ChannelSpec selects one link-quality model (version 3). Model decides
// which of the remaining fields apply. Bernoulli requires an explicit
// PRR; the shadowing and capture parameters all default when zero.
type ChannelSpec struct {
	// Model is "perfect", "bernoulli" or "shadowing".
	Model string `json:"model"`
	// PRR parameterizes "bernoulli": the fixed per-link delivery
	// probability.
	PRR float64 `json:"prr,omitempty"`
	// PathLossExp, SigmaDB, EdgeMarginDB and WidthDB parameterize
	// "shadowing" (see channel.Shadowing).
	PathLossExp  float64 `json:"path_loss_exp,omitempty"`
	SigmaDB      float64 `json:"sigma_db,omitempty"`
	EdgeMarginDB float64 `json:"edge_margin_db,omitempty"`
	WidthDB      float64 `json:"width_db,omitempty"`
	// Capture enables the power-capture collision model in the
	// simulator; CaptureDB is its margin in dB (0 selects the default).
	Capture   bool    `json:"capture,omitempty"`
	CaptureDB float64 `json:"capture_db,omitempty"`
}

// Model materializes the channel model the spec selects.
func (c ChannelSpec) model() (channel.Model, error) {
	return channel.New(c.Model,
		channel.Bernoulli{PRR: c.PRR},
		channel.Shadowing{
			PathLossExp:  c.PathLossExp,
			SigmaDB:      c.SigmaDB,
			EdgeMarginDB: c.EdgeMarginDB,
			WidthDB:      c.WidthDB,
		})
}

// TopologySpec selects one topology.Generator. Kind decides which of
// the remaining fields apply.
type TopologySpec struct {
	// Kind is "ring", "disk", "grid", "line" or "cluster".
	Kind string `json:"kind"`
	// Depth and Density parameterize "ring".
	Depth   int `json:"depth,omitempty"`
	Density int `json:"density,omitempty"`
	// Nodes and Radius parameterize "disk"; Nodes also sizes "line".
	Nodes  int     `json:"nodes,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	// Width, Height and Spacing parameterize "grid"; Spacing also
	// applies to "line".
	Width   int     `json:"width,omitempty"`
	Height  int     `json:"height,omitempty"`
	Spacing float64 `json:"spacing,omitempty"`
	// Clusters, ClusterSize, FieldRadius and ClusterRadius parameterize
	// "cluster".
	Clusters      int     `json:"clusters,omitempty"`
	ClusterSize   int     `json:"cluster_size,omitempty"`
	FieldRadius   float64 `json:"field_radius,omitempty"`
	ClusterRadius float64 `json:"cluster_radius,omitempty"`
}

// Generator materializes the topology family the spec selects.
func (t TopologySpec) Generator() (topology.Generator, error) {
	switch t.Kind {
	case "ring":
		return topology.RingGen{Model: topology.RingModel{Depth: t.Depth, Density: t.Density}}, nil
	case "disk":
		return topology.DiskGen{Nodes: t.Nodes, Radius: t.Radius}, nil
	case "grid":
		return topology.GridGen{Width: t.Width, Height: t.Height, Spacing: t.Spacing}, nil
	case "line":
		return topology.LineGen{Nodes: t.Nodes, Spacing: t.Spacing}, nil
	case "cluster":
		return topology.ClusterGen{
			Clusters:      t.Clusters,
			ClusterSize:   t.ClusterSize,
			FieldRadius:   t.FieldRadius,
			ClusterRadius: t.ClusterRadius,
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q (want ring, disk, grid, line or cluster)", t.Kind)
	}
}

// TrafficSpec selects one traffic.Model. Kind decides which of the
// remaining fields apply.
type TrafficSpec struct {
	// Kind is "periodic", "bursty", "event" or "heterogeneous".
	Kind string `json:"kind"`
	// Rate parameterizes "periodic".
	Rate float64 `json:"rate,omitempty"`
	// PeakRate, OnMean and OffMean parameterize "bursty".
	PeakRate float64 `json:"peak_rate,omitempty"`
	OnMean   float64 `json:"on_mean,omitempty"`
	OffMean  float64 `json:"off_mean,omitempty"`
	// EventRate, EventRadius and BackgroundRate parameterize "event".
	EventRate      float64 `json:"event_rate,omitempty"`
	EventRadius    float64 `json:"event_radius,omitempty"`
	BackgroundRate float64 `json:"background_rate,omitempty"`
	// BaseRate and OuterFactor parameterize "heterogeneous".
	BaseRate    float64 `json:"base_rate,omitempty"`
	OuterFactor float64 `json:"outer_factor,omitempty"`
}

// Model materializes the traffic model the spec selects.
func (t TrafficSpec) Model() (traffic.Model, error) {
	switch t.Kind {
	case "periodic":
		return traffic.Periodic{Rate: t.Rate}, nil
	case "bursty":
		return traffic.Bursty{PeakRate: t.PeakRate, OnMean: t.OnMean, OffMean: t.OffMean}, nil
	case "event":
		return traffic.Event{EventRate: t.EventRate, EventRadius: t.EventRadius, BackgroundRate: t.BackgroundRate}, nil
	case "heterogeneous":
		return traffic.Heterogeneous{BaseRate: t.BaseRate, OuterFactor: t.OuterFactor}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown traffic kind %q (want periodic, bursty, event or heterogeneous)", t.Kind)
	}
}

// Parse decodes and validates a JSON spec. Unknown fields are rejected
// so typos fail loudly instead of silently selecting defaults.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Load reads and parses a spec file from disk.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// TrafficKind returns the workload family the spec selects — the
// stationary model's kind, or "phased" for a version-2 phase
// composition.
func (s Spec) TrafficKind() string {
	if len(s.Phases) > 0 {
		return "phased"
	}
	return s.Traffic.Kind
}

// trafficModel materializes the workload: the stationary model, or the
// phase composition spliced into a traffic.Phased.
func (s Spec) trafficModel() (traffic.Model, error) {
	if len(s.Phases) == 0 {
		return s.Traffic.Model()
	}
	phases := make([]traffic.Phase, len(s.Phases))
	for i, ph := range s.Phases {
		m, err := ph.Traffic.Model()
		if err != nil {
			return nil, fmt.Errorf("scenario: phase %d: %w", i, err)
		}
		phases[i] = traffic.Phase{Model: m, Duration: ph.Duration}
	}
	return traffic.Phased{Phases: phases}, nil
}

// Validate reports whether the spec is materializable.
func (s Spec) Validate() error {
	if s.SpecVersion < minVersion || s.SpecVersion > Version {
		return fmt.Errorf("scenario: spec version %d unsupported (this build reads versions %d-%d)",
			s.SpecVersion, minVersion, Version)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.SpecVersion < 2 && (len(s.Phases) > 0 || s.Adaptation != nil) {
		return fmt.Errorf("scenario %s: phases and adaptation need spec version 2 (got %d)", s.Name, s.SpecVersion)
	}
	if s.SpecVersion < 3 && s.Channel != nil {
		return fmt.Errorf("scenario %s: a channel block needs spec version 3 (got %d)", s.Name, s.SpecVersion)
	}
	if s.SpecVersion < 4 && (s.Failures != nil || s.Battery != nil) {
		return fmt.Errorf("scenario %s: failures and battery blocks need spec version 4 (got %d)", s.Name, s.SpecVersion)
	}
	if s.Failures != nil {
		if err := s.Failures.valid(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Battery != nil {
		if err := s.Battery.valid(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	if s.Channel != nil {
		if _, err := s.Channel.model(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if s.Channel.CaptureDB < 0 {
			return fmt.Errorf("scenario %s: capture threshold %v dB must be non-negative", s.Name, s.Channel.CaptureDB)
		}
	}
	if len(s.Phases) > 0 {
		if s.Traffic != (TrafficSpec{}) {
			return fmt.Errorf("scenario %s: traffic and phases are mutually exclusive", s.Name)
		}
		if len(s.Phases) < 2 {
			return fmt.Errorf("scenario %s: a phased workload needs at least 2 phases (one phase is just traffic)", s.Name)
		}
	} else if s.Adaptation != nil && s.Failures == nil && s.Battery == nil {
		return fmt.Errorf("scenario %s: adaptation needs a phased workload or failure dynamics", s.Name)
	}
	if s.Adaptation != nil {
		if err := s.Adaptation.valid(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if s.Adaptation.Mode == AdaptOnDeath && s.Failures == nil && s.Battery == nil {
			return fmt.Errorf("scenario %s: on-death adaptation needs a failures or battery block", s.Name)
		}
		if s.Adaptation.Mode == AdaptPerPhase && len(s.Phases) == 0 {
			return fmt.Errorf("scenario %s: per-phase adaptation needs a phased workload", s.Name)
		}
	}
	gen, err := s.Topology.Generator()
	if err != nil {
		return err
	}
	if err := gen.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	model, err := s.trafficModel()
	if err != nil {
		return err
	}
	if err := model.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := radio.Profile(s.Radio); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Payload <= 0 {
		return fmt.Errorf("scenario %s: payload %d must be positive", s.Name, s.Payload)
	}
	if s.Window <= 0 {
		return fmt.Errorf("scenario %s: window %v must be positive", s.Name, s.Window)
	}
	return nil
}

// Materialized is a spec turned into live objects, the input the
// analytic models and the simulator share.
type Materialized struct {
	// Spec echoes the source description.
	Spec Spec
	// Network is the built topology.
	Network *topology.Network
	// Traffic is the built workload model.
	Traffic traffic.Model
	// Radio is the resolved transceiver profile.
	Radio radio.Radio

	// meanRate is MeanRate's aggregation, materialized once at build
	// time: adaptive runtimes re-read it at every re-bargaining epoch,
	// and a precomputed value keeps the shared Materialized free of
	// lazy mutation (it is read concurrently by suite cells).
	meanRate float64
}

// ChannelKind returns the link-quality family the spec selects:
// "perfect" when no channel block is present.
func (s Spec) ChannelKind() string {
	if s.Channel == nil || s.Channel.Model == "" {
		return "perfect"
	}
	return s.Channel.Model
}

// Faulty reports whether the scenario injects failure dynamics (churn,
// an explicit crash schedule, or finite batteries).
func (s Spec) Faulty() bool { return s.Failures != nil || s.Battery != nil }

// CaptureConfig returns whether the simulator should enable the capture
// effect for this scenario, and with which margin in dB (0 selects the
// simulator default).
func (s Spec) CaptureConfig() (enabled bool, thresholdDB float64) {
	if s.Channel == nil {
		return false, 0
	}
	return s.Channel.Capture, s.Channel.CaptureDB
}

// Materialize builds the network (resampling deterministically from
// Spec.Seed until connected), stamps its links with the channel model's
// quality (also deterministic in Spec.Seed), and builds the traffic
// model and its mean rate. Equal specs always materialize identical
// objects.
func (s Spec) Materialize() (*Materialized, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gen, _ := s.Topology.Generator()
	net, err := gen.Build(lazyrand.New(s.Seed))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.Channel != nil {
		ch, _ := s.Channel.model()
		if err := channel.Apply(ch, net, s.Seed); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	model, _ := s.trafficModel()
	prof, _ := radio.Profile(s.Radio)
	return &Materialized{
		Spec:     s,
		Network:  net,
		Traffic:  model,
		Radio:    prof,
		meanRate: traffic.MeanNonSinkRate(model.MeanRates(net)),
	}, nil
}

// MeanRate returns the average per-node generation rate over the
// non-sink nodes — the homogeneous rate the analytic ring models see.
// Materialize precomputes it.
func (m *Materialized) MeanRate() float64 { return m.meanRate }

// EquivalentRing maps the explicit network onto the analytic ring
// abstraction the closed-form MAC models need: the BFS depth becomes D
// and the rounded mean degree becomes the density C (floored at 1).
func (m *Materialized) EquivalentRing() topology.RingModel {
	density := int(math.Round(m.Network.MeanDegree()))
	if density < 1 {
		density = 1
	}
	return topology.RingModel{Depth: m.Network.Depth(), Density: density}
}
