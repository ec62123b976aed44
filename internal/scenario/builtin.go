package scenario

// The builtin registry: a curated matrix of deployment shapes ×
// workloads that exercises every generator and every traffic model at
// sizes small enough for CI yet distinct enough to pull the protocols'
// energy-delay tradeoffs apart. Names are stable — golden suite
// fixtures and CLI invocations refer to them.

// Builtins returns the built-in scenarios in registry order. The slice
// is freshly allocated; callers may reorder or extend it.
//
// Every scenario declares the oldest spec version that supports it —
// stationary perfect-channel scenarios stay at version 1 and phased
// ones at version 2, so their JSON is byte-identical across schema
// extensions. The non-stationary scenarios carry a per-phase adaptation
// default, committing the adaptive-vs-static comparison to the suite
// golden; the lossy scenarios declare version 3 and twin two
// perfect-channel entries (ring-baseline, disk-meadow), so the golden
// also commits how the bargain and the measured outcome move when the
// same deployment's links degrade. The trailing survivability
// scenarios declare version 4 and twin the same two entries once more,
// now under failure dynamics (churn, finite batteries) with on-death
// re-bargaining, committing the degradation-aware-vs-static comparison.
func Builtins() []Spec {
	return []Spec{
		{
			SpecVersion: 1,
			Name:        "ring-baseline",
			Description: "The paper's concentric-ring convergecast model at CI scale: depth 3, density 3, steady periodic sensing.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "ring", Depth: 3, Density: 3},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 120},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "disk-meadow",
			Description: "Sparse random-geometric field on sub-GHz radios: environmental monitoring over a wide meadow.",
			Seed:        7,
			Topology:    TopologySpec{Kind: "disk", Nodes: 36, Radius: 2.6},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 150},
			Radio:       "cc1101",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "disk-dense",
			Description: "Dense random-geometric deployment: heavy spatial reuse pressure and overhearing.",
			Seed:        3,
			Topology:    TopologySpec{Kind: "disk", Nodes: 48, Radius: 1.8},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 90},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "grid-campus",
			Description: "Structured 7x5 lattice with edge-heavy sampling: perimeter rooms report four times as often as the core.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "grid", Width: 7, Height: 5, Spacing: 0.9},
			Traffic:     TrafficSpec{Kind: "heterogeneous", BaseRate: 1.0 / 240, OuterFactor: 4},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "tunnel-chain",
			Description: "A 24-hop road-tunnel chain, the deepest builtin: multi-hop delay accumulation dominates.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "line", Nodes: 24, Spacing: 0.8},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 180},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "cluster-twotier",
			Description: "Two-tier clustered deployment: four instrumented machines, each with a pocket of member sensors.",
			Seed:        5,
			Topology:    TopologySpec{Kind: "cluster", Clusters: 4, ClusterSize: 6, FieldRadius: 1.8, ClusterRadius: 0.7},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 120},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "disk-bursty",
			Description: "Random field under Markov-modulated on-off load: long silences broken by packet trains.",
			Seed:        11,
			Topology:    TopologySpec{Kind: "disk", Nodes: 30, Radius: 2.2},
			Traffic:     TrafficSpec{Kind: "bursty", PeakRate: 0.1, OnMean: 25, OffMean: 175},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "grid-eventwatch",
			Description: "Lattice surveillance under spatially-correlated events: neighbours report the same stimulus near-simultaneously.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "grid", Width: 6, Height: 6, Spacing: 0.8},
			Traffic:     TrafficSpec{Kind: "event", EventRate: 1.0 / 40, EventRadius: 1.2, BackgroundRate: 1.0 / 600},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 1,
			Name:        "tunnel-sentinel",
			Description: "Pipeline chain whose far end carries the instrumentation: outermost nodes sample five times the base rate.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "line", Nodes: 18, Spacing: 0.9},
			Traffic:     TrafficSpec{Kind: "heterogeneous", BaseRate: 1.0 / 200, OuterFactor: 5},
			Radio:       "cc1101",
			Payload:     48,
			Window:      60,
		},
		{
			SpecVersion: 2,
			Name:        "meadow-stormcycle",
			Description: "Non-stationary field monitoring: long calm sampling, a bursty storm surge, then calm again; re-bargained per phase.",
			Seed:        7,
			Topology:    TopologySpec{Kind: "disk", Nodes: 30, Radius: 2.2},
			Phases: []PhaseSpec{
				{Name: "calm", Traffic: TrafficSpec{Kind: "periodic", Rate: 1.0 / 300}, Duration: 160},
				{Name: "storm", Traffic: TrafficSpec{Kind: "bursty", PeakRate: 0.1, OnMean: 20, OffMean: 40}, Duration: 80},
				{Name: "recovery", Traffic: TrafficSpec{Kind: "periodic", Rate: 1.0 / 300}, Duration: 160},
			},
			Adaptation: &AdaptationSpec{Mode: AdaptPerPhase},
			Radio:      "cc2420",
			Payload:    32,
			Window:     60,
		},
		{
			SpecVersion: 2,
			Name:        "grid-nightwatch",
			Description: "Lattice surveillance through a quiet shift, an event storm of correlated detections, and the quiet after; re-bargained per phase.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "grid", Width: 6, Height: 6, Spacing: 0.8},
			Phases: []PhaseSpec{
				{Name: "quiet", Traffic: TrafficSpec{Kind: "periodic", Rate: 1.0 / 360}, Duration: 150},
				{Name: "storm", Traffic: TrafficSpec{Kind: "event", EventRate: 1.0 / 15, EventRadius: 1.2, BackgroundRate: 1.0 / 600}, Duration: 100},
				{Name: "quiet-after", Traffic: TrafficSpec{Kind: "periodic", Rate: 1.0 / 360}, Duration: 150},
			},
			Adaptation: &AdaptationSpec{Mode: AdaptPerPhase},
			Radio:      "cc2420",
			Payload:    32,
			Window:     60,
		},
		{
			SpecVersion: 3,
			Name:        "ring-lossy",
			Description: "The ring baseline over lossy links: every link drops 15% of frames, dominant frames capture through overlap.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "ring", Depth: 3, Density: 3},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 120},
			Channel:     &ChannelSpec{Model: "bernoulli", PRR: 0.85, Capture: true},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 3,
			Name:        "meadow-shadowed",
			Description: "The sparse meadow under log-normal shadowing: edge links fade persistently, capture resolves most overlaps.",
			Seed:        7,
			Topology:    TopologySpec{Kind: "disk", Nodes: 36, Radius: 2.6},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 150},
			Channel:     &ChannelSpec{Model: "shadowing", PathLossExp: 3.2, SigmaDB: 4, EdgeMarginDB: 5, Capture: true},
			Radio:       "cc1101",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 4,
			Name:        "ring-attrition",
			Description: "The ring baseline under churn on finite batteries: relays crash and recover on exponential clocks while every node drains a small battery, and each liveness epoch re-plays the bargain over the survivors.",
			Seed:        1,
			Topology:    TopologySpec{Kind: "ring", Depth: 3, Density: 3},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 120},
			Failures:    &FailureSpec{Model: FailChurn, MTBF: 500, MTTR: 80},
			Battery:     &BatterySpec{CapacityJ: 0.4},
			Adaptation:  &AdaptationSpec{Mode: AdaptOnDeath},
			Radio:       "cc2420",
			Payload:     32,
			Window:      60,
		},
		{
			SpecVersion: 4,
			Name:        "meadow-brownout",
			Description: "The sparse meadow on finite batteries with sporadic crashes: nodes die at their depletion instants, and each death re-bargains the survivors toward a thriftier point.",
			Seed:        7,
			Topology:    TopologySpec{Kind: "disk", Nodes: 36, Radius: 2.6},
			Traffic:     TrafficSpec{Kind: "periodic", Rate: 1.0 / 150},
			Failures:    &FailureSpec{Model: FailChurn, MTBF: 600, MTTR: 120},
			Battery:     &BatterySpec{CapacityJ: 0.35},
			Adaptation:  &AdaptationSpec{Mode: AdaptOnDeath},
			Radio:       "cc1101",
			Payload:     32,
			Window:      60,
		},
	}
}

// ByName returns the builtin scenario with the given name.
func ByName(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
