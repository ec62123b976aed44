package edmac

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/scenario"
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
	// distinct seeds, e.g. one per BatchRun of a Client.Batch. The seed a
	// run actually used is echoed in SimReport.Seed, so reports are
	// self-describing and reproducible from their own content.
	Seed int64 `json:"seed,omitempty"`
}

// SimReport carries the measured outcomes of a simulation run.
// MeanDelay, MaxDelay, P95Delay and OuterRingDelay are NaN when nothing
// qualifying was delivered. A report encodes itself: its MarshalJSON
// omits non-finite delays, as SuiteSim does.
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
	// wall clock. Events counts processed simulator events, including
	// the idle X-MAC and B-MAC poll steps and the LMAC slot steps the
	// simulator folds in without queueing them; PeakPending is the
	// event queue's high-water mark and WheelPromotions the events that
	// landed beyond the timing wheel's horizon and were bulk promoted
	// later, both over the events actually queued (see sim.Result).
	// All omitted when zero.
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

// MarshalJSON encodes the report with every non-finite delay summary
// omitted (encoding/json rejects NaN). Every other field encodes as
// its tag says, so a report with finite delays encodes exactly as the
// struct would without this method.
func (r SimReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(simReportWire{
		Protocol:         r.Protocol,
		Params:           r.Params,
		Seed:             r.Seed,
		Duration:         r.Duration,
		Nodes:            r.Nodes,
		Generated:        r.Generated,
		Delivered:        r.Delivered,
		Duplicates:       r.Duplicates,
		Dropped:          r.Dropped,
		Collisions:       r.Collisions,
		ChannelLosses:    r.ChannelLosses,
		Captures:         r.Captures,
		DeliveryRatio:    r.DeliveryRatio,
		MeanDelay:        finiteOrNil(r.MeanDelay),
		MaxDelay:         finiteOrNil(r.MaxDelay),
		P95Delay:         finiteOrNil(r.P95Delay),
		OuterRingDelay:   finiteOrNil(r.OuterRingDelay),
		BottleneckEnergy: r.BottleneckEnergy,

		Events:          r.Events,
		PeakPending:     r.PeakPending,
		WheelPromotions: r.WheelPromotions,

		Deaths:             r.Deaths,
		Recoveries:         r.Recoveries,
		DeadAtEnd:          r.DeadAtEnd,
		StrandedPackets:    r.StrandedPackets,
		DeadNodeFraction:   r.DeadNodeFraction,
		PartitionFraction:  r.PartitionFraction,
		Rebargains:         r.Rebargains,
		DegradedRebargains: r.DegradedRebargains,
	})
}

// simReportWire is SimReport with the NaN-able delay summaries boxed.
// The field set, order and names match SimReport's tags.
type simReportWire struct {
	Protocol           Protocol  `json:"protocol"`
	Params             []float64 `json:"params"`
	Seed               int64     `json:"seed"`
	Duration           float64   `json:"duration"`
	Nodes              int       `json:"nodes"`
	Generated          int       `json:"generated"`
	Delivered          int       `json:"delivered"`
	Duplicates         int       `json:"duplicates,omitempty"`
	Dropped            int       `json:"dropped"`
	Collisions         int       `json:"collisions"`
	ChannelLosses      int       `json:"channel_losses,omitempty"`
	Captures           int       `json:"captures,omitempty"`
	DeliveryRatio      float64   `json:"delivery_ratio"`
	MeanDelay          *float64  `json:"mean_delay,omitempty"`
	MaxDelay           *float64  `json:"max_delay,omitempty"`
	P95Delay           *float64  `json:"p95_delay,omitempty"`
	OuterRingDelay     *float64  `json:"outer_ring_delay,omitempty"`
	BottleneckEnergy   float64   `json:"bottleneck_energy"`
	Events             uint64    `json:"events,omitempty"`
	PeakPending        int       `json:"peak_pending,omitempty"`
	WheelPromotions    uint64    `json:"wheel_promotions,omitempty"`
	Deaths             int       `json:"deaths,omitempty"`
	Recoveries         int       `json:"recoveries,omitempty"`
	DeadAtEnd          int       `json:"dead_at_end,omitempty"`
	StrandedPackets    int       `json:"stranded_packets,omitempty"`
	DeadNodeFraction   float64   `json:"dead_node_fraction,omitempty"`
	PartitionFraction  float64   `json:"partition_fraction,omitempty"`
	Rebargains         int       `json:"rebargains,omitempty"`
	DegradedRebargains int       `json:"degraded_rebargains,omitempty"`
}

// simulateScenario is the one simulation path of the facade: Simulate
// and Batch run every deployment, ring scenarios included, as a spec
// that is materialized, mapped onto a sim.Config by simConfigOf and
// reported by simReportOf, as suite cells are.
func simulateScenario(ctx context.Context, p Protocol, sp ScenarioSpec, params []float64, o SimOptions) (SimReport, error) {
	if err := checkRun(p, sp, params); err != nil {
		return SimReport{}, err
	}
	o = o.withDefaults()
	m, err := sp.spec.Materialize()
	if err != nil {
		return SimReport{}, err
	}
	cfg := simConfigOf(sp.spec, m, p, params, o.Duration, o.Seed)
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return SimReport{}, err
	}
	return simReportOf(p, params, cfg.Seed, m, res), nil
}

// checkRun holds the checks a run passes before anything is built: a
// constructed spec, a simulable protocol, the spec's radio and the
// LMAC frame bounds.
func checkRun(p Protocol, sp ScenarioSpec, params []float64) error {
	if err := sp.valid(); err != nil {
		return err
	}
	if err := simulable(p); err != nil {
		return err
	}
	prof, err := radio.Profile(sp.spec.Radio)
	if err != nil {
		return err
	}
	return checkFrame(p, prof, sp.spec.Payload, params)
}

// simulable rejects the protocol the simulator does not implement.
func simulable(p Protocol) error {
	if p == SCPMAC {
		return fmt.Errorf("edmac: scpmac is analytic-only; simulate xmac, bmac, dmac or lmac")
	}
	return nil
}

// checkFrame rejects an LMAC vector whose frame has more slots than the
// model's frame-slots maximum, or whose slot is shorter than the model's
// slot-length minimum for the run's radio and payload. Every simulated
// LMAC node keeps tables with one entry per slot, so an unbounded frame
// would let one small request size the server's memory. Below the
// minimum (control + CCA + data + turnaround) every section outlasts its
// slot and nothing can be delivered. No bargain lies beyond either
// bound, and neither depends on the rings or the traffic; slot counts
// below the model's minimum stay allowed as what-ifs.
func checkFrame(p Protocol, r radio.Radio, payload int, params []float64) error {
	if p != LMAC || len(params) == 0 {
		return nil
	}
	env := macmodel.Default()
	env.Radio, env.Payload = r, payload
	m, err := macmodel.NewLMAC(env)
	if err != nil {
		return err
	}
	slots, slot := m.Params()[0], m.Params()[1]
	if params[0] > slots.Max {
		return fmt.Errorf("edmac: lmac %s %v exceeds the model's maximum of %v %s", slots.Name, params[0], slots.Max, slots.Unit)
	}
	if len(params) > 1 && params[1] < slot.Min {
		return fmt.Errorf("edmac: lmac %s %v is below the model's minimum of %v %s for %s at %d-byte payloads",
			slot.Name, params[1], slot.Min, slot.Unit, r.Name, payload)
	}
	return nil
}

// simReportOf assembles the public report of a run over a materialized
// spec: the packets of the network's outermost ring define the
// reference delay, and energy is accounted per the spec's window.
func simReportOf(p Protocol, params []float64, seed int64, m *scenario.Materialized, res *sim.Result) SimReport {
	net, outer := m.Network, m.Network.Depth()
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
		BottleneckEnergy: res.MeanRingEnergyPerWindow(net, 1, m.Spec.Window),
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
