package edmac

import (
	"context"
	"fmt"
	"math"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
)

// SimOptions configure a packet-level simulation run.
type SimOptions struct {
	// Duration is the simulated time in seconds (default
	// DefaultSimDuration).
	Duration float64 `json:"duration,omitempty"`
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	//
	// Seed convention: the zero value is a real seed, not "randomize" —
	// two runs that both leave Seed unset are intentionally identical.
	// Callers wanting statistically independent replications must supply
	// distinct seeds (SimulateSeeds does this for a whole batch). The
	// seed a run actually used is echoed in SimReport.Seed, so reports
	// are self-describing and reproducible from their own content.
	Seed int64 `json:"seed,omitempty"`
}

// SimReport carries the measured outcomes of a simulation run.
// Delay fields (MeanDelay, MaxDelay, P95Delay, OuterRingDelay) are NaN
// when nothing qualifying was delivered; JSON encoders must scrub them
// (the serve layer omits non-finite fields, as SuiteSim does).
type SimReport struct {
	// Protocol and Params echo the configuration.
	Protocol Protocol  `json:"protocol"`
	Params   []float64 `json:"params"`
	// Seed is the effective random seed the run used (see the
	// SimOptions.Seed convention); replaying with it reproduces the run
	// exactly.
	Seed int64 `json:"seed"`
	// Duration is the simulated seconds.
	Duration float64 `json:"duration"`
	// Nodes is the network size including the sink.
	Nodes int `json:"nodes"`
	// Generated, Delivered, Dropped count application packets;
	// Collisions counts corrupted receptions. Delivered counts each
	// packet once: redundant sink receptions — a lost ACK (or an
	// epoch-boundary reconfiguration) makes the sender retransmit a
	// packet the sink already took — are tallied in Duplicates instead,
	// so Delivered never exceeds Generated.
	Generated  int `json:"generated"`
	Delivered  int `json:"delivered"`
	Duplicates int `json:"duplicates,omitempty"`
	Dropped    int `json:"dropped"`
	Collisions int `json:"collisions"`
	// ChannelLosses counts receptions lost to the lossy-link delivery
	// draw; Captures counts overlaps a frame survived via the capture
	// effect. Both are 0 on the default perfect channel.
	ChannelLosses int `json:"channel_losses,omitempty"`
	Captures      int `json:"captures,omitempty"`
	// DeliveryRatio is Delivered/Generated, defined as 0 when the run
	// generated nothing (a low-rate workload over a short duration), so
	// reports always carry a finite, JSON-encodable value. Deliveries
	// are deduplicated, so the ratio never exceeds 1.
	DeliveryRatio float64 `json:"delivery_ratio"`
	// MeanDelay, MaxDelay and P95Delay summarize end-to-end delays in
	// seconds across all delivered packets.
	MeanDelay float64 `json:"mean_delay"`
	MaxDelay  float64 `json:"max_delay"`
	P95Delay  float64 `json:"p95_delay"`
	// OuterRingDelay is the mean delay of packets originating at the
	// outermost ring — the analytic models' reference.
	OuterRingDelay float64 `json:"outer_ring_delay"`
	// BottleneckEnergy is the mean measured energy per accounting window
	// of ring-1 nodes, in joules — comparable to Result energies.
	BottleneckEnergy float64 `json:"bottleneck_energy"`

	// Scheduler observability — the engine's own counters, surfaced so
	// load and capacity tooling can reason in events/second instead of
	// wall clock. Events counts processed simulator events, PeakPending
	// the event queue's high-water mark, WheelPromotions the events
	// that landed beyond the timing wheel's horizon and were bulk
	// promoted later (near 0 on healthy duty-cycle workloads). All
	// omitted when zero.
	Events          uint64 `json:"events,omitempty"`
	PeakPending     int    `json:"peak_pending,omitempty"`
	WheelPromotions uint64 `json:"wheel_promotions,omitempty"`

	// Survivability block — populated only by fault-injected runs
	// (version-4 scenarios with failures or battery blocks) and omitted
	// everywhere else, so failure-free reports are byte-identical to
	// earlier releases. Deaths counts node-down transitions (crashes and
	// battery depletions), Recoveries the come-backs, DeadAtEnd the
	// nodes down at the horizon. StrandedPackets counts queued packets a
	// dying node lost. DeadNodeFraction is the dead-node integral over
	// (non-sink nodes × duration); PartitionFraction the fraction of the
	// run some alive node had no live route to the sink. Rebargains
	// counts degradation-aware re-bargains consulted at liveness epochs;
	// DegradedRebargains the ones that failed and fell back to the
	// last-good vector.
	Deaths             int     `json:"deaths,omitempty"`
	Recoveries         int     `json:"recoveries,omitempty"`
	DeadAtEnd          int     `json:"dead_at_end,omitempty"`
	StrandedPackets    int     `json:"stranded_packets,omitempty"`
	DeadNodeFraction   float64 `json:"dead_node_fraction,omitempty"`
	PartitionFraction  float64 `json:"partition_fraction,omitempty"`
	Rebargains         int     `json:"rebargains,omitempty"`
	DegradedRebargains int     `json:"degraded_rebargains,omitempty"`
}

// Simulate replays a protocol configuration at packet level on the
// deterministic ring placement of the scenario and reports measured
// delivery, delay and energy. SCPMAC has no simulator implementation
// (its clock-drift machinery is modelled analytically only) and is
// rejected.
//
// Deprecated: use (*Client).Simulate, whose context can abort a
// long-running simulation; this wrapper delegates to the
// package-default client and behaves identically.
func Simulate(p Protocol, s Scenario, params []float64, o SimOptions) (SimReport, error) {
	rep, err := defaultClient().Simulate(context.Background(), SimulateRequest{
		Protocol: p, Scenario: &s, Params: params, Options: o,
	})
	return rep.Sim, err
}

// simulate is the context-aware run behind Client.Simulate's
// ring-scenario path.
func simulate(ctx context.Context, p Protocol, s Scenario, params []float64, o SimOptions) (SimReport, error) {
	cfg, env, net, err := prepareSim(p, s, params, o)
	if err != nil {
		return SimReport{}, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return SimReport{}, err
	}
	return simReportOf(p, params, cfg.Seed, env.Rings.Depth, env.Window, net, res), nil
}

// prepareSim validates a simulation request and builds the sim.Config
// plus the immutable context (environment, network) a report needs.
func prepareSim(p Protocol, s Scenario, params []float64, o SimOptions) (sim.Config, macmodel.Env, *topology.Network, error) {
	if p == SCPMAC {
		return sim.Config{}, macmodel.Env{}, nil, fmt.Errorf("edmac: scpmac is analytic-only; simulate xmac, bmac, dmac or lmac")
	}
	o = o.withDefaults()
	env, err := s.env()
	if err != nil {
		return sim.Config{}, macmodel.Env{}, nil, err
	}
	m, err := macmodel.New(string(p), env)
	if err != nil {
		return sim.Config{}, macmodel.Env{}, nil, err
	}
	x, err := vec(m, params)
	if err != nil {
		return sim.Config{}, macmodel.Env{}, nil, err
	}
	net, err := topology.Rings(env.Rings)
	if err != nil {
		return sim.Config{}, macmodel.Env{}, nil, err
	}
	return sim.Config{
		Protocol:   string(p),
		Network:    net,
		Radio:      env.Radio,
		Params:     x,
		SampleRate: env.SampleRate,
		Payload:    env.Payload,
		Duration:   o.Duration,
		Seed:       o.Seed,
	}, env, net, nil
}

// simReportOf assembles the public report from a raw simulation result:
// outer is the ring whose packets define the reference delay, window the
// energy-accounting window in seconds.
func simReportOf(p Protocol, params []float64, seed int64, outer int, window float64, net *topology.Network, res *sim.Result) SimReport {
	rep := SimReport{
		Protocol:      p,
		Params:        append([]float64(nil), params...),
		Seed:          seed,
		Duration:      res.Duration,
		Nodes:         net.N(),
		Generated:     res.Metrics.Generated(),
		Delivered:     res.Metrics.Delivered(),
		Duplicates:    res.Metrics.Duplicates(),
		Dropped:       res.Metrics.Dropped(),
		Collisions:    res.Collisions,
		ChannelLosses: res.ChannelLosses,
		Captures:      res.Captures,
		// The idle-run (generated 0) ratio-0 convention lives in Metrics,
		// the single source both layers read.
		DeliveryRatio: res.Metrics.DeliveryRatio(),
		MeanDelay:     res.Metrics.MeanDelay(),
		MaxDelay:      res.Metrics.MaxDelay(),
		P95Delay:      res.Metrics.QuantileDelay(0.95),
		OuterRingDelay: res.Metrics.MeanDelayFrom(func(id topology.NodeID) bool {
			return net.Ring(id) == outer
		}),
		BottleneckEnergy: res.MeanRingEnergyPerWindow(net, 1, window),
		Events:           res.Events,
		PeakPending:      res.PeakPending,
		WheelPromotions:  res.WheelPromotions,
	}
	// Survivability counters are all zero on failure-free runs and the
	// fields then omit from JSON, keeping legacy reports byte-stable.
	rep.Deaths = res.Deaths
	rep.Recoveries = res.Recoveries
	rep.DeadAtEnd = res.DeadAtEnd
	rep.StrandedPackets = res.StrandedPackets
	rep.DeadNodeFraction = res.DeadNodeFraction(net.N())
	rep.PartitionFraction = res.PartitionFraction()
	rep.Rebargains = res.Rebargains
	rep.DegradedRebargains = res.DegradedRebargains
	return rep
}

// ValidationReport contrasts the analytic model with the simulator at
// one parameter vector.
type ValidationReport struct {
	SimReport
	// AnalyticEnergy and AnalyticDelay are the model's predictions.
	AnalyticEnergy float64 `json:"analytic_energy"`
	AnalyticDelay  float64 `json:"analytic_delay"`
	// EnergyRatio and DelayRatio are measured/predicted (NaN when the
	// measurement is unusable, e.g. nothing was delivered).
	EnergyRatio float64 `json:"energy_ratio"`
	DelayRatio  float64 `json:"delay_ratio"`
}

// Validate simulates a configuration and reports measured-vs-analytic
// energy and delay — the per-experiment evidence of EXPERIMENTS.md.
//
// Deprecated: use (*Client).Simulate with SimulateRequest.Validate,
// whose context can abort the run; this wrapper delegates to the
// package-default client and behaves identically.
func Validate(p Protocol, s Scenario, params []float64, o SimOptions) (ValidationReport, error) {
	rep, err := defaultClient().Simulate(context.Background(), SimulateRequest{
		Protocol: p, Scenario: &s, Params: params, Options: o, Validate: true,
	})
	if err != nil {
		return ValidationReport{}, err
	}
	out := ValidationReport{
		SimReport:      rep.Sim,
		AnalyticEnergy: rep.Analytic.Energy,
		AnalyticDelay:  rep.Analytic.Delay,
		EnergyRatio:    math.NaN(),
		DelayRatio:     math.NaN(),
	}
	if rep.Analytic.EnergyRatio != nil {
		out.EnergyRatio = *rep.Analytic.EnergyRatio
	}
	if rep.Analytic.DelayRatio != nil {
		out.DelayRatio = *rep.Analytic.DelayRatio
	}
	return out, nil
}
