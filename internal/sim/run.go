package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// Config describes one simulation run. The parameter vector uses the
// same coordinates as the corresponding analytic model in
// internal/macmodel, so an optimized configuration can be replayed in
// the simulator verbatim.
type Config struct {
	// Protocol is "xmac", "dmac" or "lmac".
	Protocol string
	// Network is the explicit topology (node 0 is the sink).
	Network *topology.Network
	// Radio is the transceiver profile.
	Radio radio.Radio
	// Params is the protocol parameter vector (macmodel coordinates).
	Params opt.Vector
	// SampleRate is the per-node application rate in packets/second. It
	// drives the legacy phase-shifted periodic generator and is ignored
	// when Traffic is set.
	SampleRate float64
	// Traffic optionally replaces the periodic generator with a traffic
	// model: every node replays the model's precomputed arrival schedule
	// (bursty, event-correlated, heterogeneous, ...). The schedules are
	// derived from Seed, keeping runs exactly reproducible.
	Traffic traffic.Model
	// Payload is the application payload in bytes.
	Payload int
	// Duration is the simulated time in seconds.
	Duration float64
	// Seed drives every random choice; equal seeds reproduce runs
	// exactly. Networks stamped with lossy links additionally derive
	// per-directed-link reception-draw streams from it.
	Seed int64
	// Capture enables the power-capture collision model: instead of
	// mutual corruption, a frame whose per-link received power exceeds
	// the competing frame's by at least CaptureDB survives the overlap.
	Capture bool
	// CaptureDB is the capture power margin in dB; non-positive selects
	// channel.DefaultCaptureDB. Ignored unless Capture is set.
	CaptureDB float64
	// Failures optionally injects node crashes and recoveries (explicit
	// schedule or seeded churn). Runs with failures follow the fault
	// runner's contract; see RunFaultyContext.
	Failures *FailureConfig
	// Battery optionally gives every non-sink node a finite energy
	// store; a node dies permanently when its residual hits zero.
	Battery *BatteryConfig
	// Shared optionally attaches a pre-built immutable world (see
	// Materialize) so repeated runs over the same scenario skip
	// re-deriving neighbour tables, link tables, slot plans and arrival
	// schedules. Tables that do not match this config are ignored, so a
	// mismatched Shared never changes results.
	Shared *Materialized
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch c.Protocol {
	case "xmac", "bmac":
		if len(c.Params) != 1 {
			return fmt.Errorf("sim: %s expects 1 parameter (wakeup interval), got %d", c.Protocol, len(c.Params))
		}
	case "dmac":
		if len(c.Params) != 2 {
			return fmt.Errorf("sim: dmac expects 2 parameters (frame, slot), got %d", len(c.Params))
		}
	case "lmac":
		if len(c.Params) != 2 {
			return fmt.Errorf("sim: lmac expects 2 parameters (slots, slot length), got %d", len(c.Params))
		}
	default:
		return fmt.Errorf("sim: unknown protocol %q", c.Protocol)
	}
	if c.Network == nil {
		return fmt.Errorf("sim: nil network")
	}
	if err := c.Radio.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for i, p := range c.Params {
		if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("sim: parameter %d = %v must be positive and finite", i, p)
		}
	}
	if c.SampleRate < 0 {
		return fmt.Errorf("sim: sample rate %v must be non-negative", c.SampleRate)
	}
	if c.Traffic != nil {
		if err := c.Traffic.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.Payload <= 0 {
		return fmt.Errorf("sim: payload %d must be positive", c.Payload)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: duration %v must be positive", c.Duration)
	}
	return c.validateFaults()
}

// Result carries the measured outcomes of a run.
type Result struct {
	// Duration is the simulated time.
	Duration float64
	// Metrics holds the application-level delivery statistics.
	Metrics *Metrics
	// Collisions counts corrupted receptions.
	Collisions int
	// ChannelLosses counts receptions lost to the per-link delivery draw
	// (0 on a perfect channel).
	ChannelLosses int
	// Captures counts overlaps a frame survived via the capture effect
	// (0 when capture is disabled).
	Captures int
	// Events is the number of simulator events processed.
	Events uint64
	// PeakPending is the high-water mark of the scheduler's pending
	// event count — how deep the event queue ever got.
	PeakPending int
	// WheelPromotions counts events that landed beyond the timing
	// wheel's one-second horizon and were later promoted into the
	// wheel in bulk; near 0 on healthy duty-cycle workloads.
	WheelPromotions uint64
	// Energy[i] is node i's consumption over the whole run, in joules.
	Energy []float64
	// ListenTime[i] is node i's idle-listen + receive time in seconds
	// (duty-cycle diagnostics).
	ListenTime []float64
	// TxTime[i] is node i's transmit time in seconds.
	TxTime []float64

	// Survivability counters, all zero on failure-free runs.
	//
	// Deaths and Recoveries count liveness transitions (a battery death
	// is a death that never recovers); DeadAtEnd is the body count at
	// the horizon. StrandedPackets counts packets lost in dead relays'
	// forwarding queues at the crash instants. DeadNodeSeconds is the
	// time integral of the dead-node count; PartitionSeconds the time
	// any alive node's tree path to the sink crossed a dead relay.
	// Rebargains counts degradation-aware re-bargaining epochs and
	// DegradedRebargains the subset that fell back to the last-good
	// vector (infeasible or failed re-solves).
	Deaths             int
	Recoveries         int
	DeadAtEnd          int
	StrandedPackets    int
	DeadNodeSeconds    float64
	PartitionSeconds   float64
	Rebargains         int
	DegradedRebargains int
}

// DeadNodeFraction normalizes DeadNodeSeconds to the run: the mean
// fraction of the (non-sink) population that was down.
func (r *Result) DeadNodeFraction(n int) float64 {
	if n <= 1 || r.Duration <= 0 {
		return 0
	}
	return r.DeadNodeSeconds / (r.Duration * float64(n-1))
}

// PartitionFraction is the fraction of the run during which at least
// one alive node was cut off from the sink by a dead relay.
func (r *Result) PartitionFraction() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return r.PartitionSeconds / r.Duration
}

// DutyCycle returns the fraction of the run node id spent with the
// radio active (listen, receive or transmit) — the quantity duty-cycled
// MACs exist to minimize.
func (r *Result) DutyCycle(id topology.NodeID) float64 {
	return (r.ListenTime[id] + r.TxTime[id]) / r.Duration
}

// EnergyPerWindow rescales node id's measured consumption to joules per
// accounting window, the unit the analytic models report.
func (r *Result) EnergyPerWindow(id topology.NodeID, window float64) float64 {
	return r.Energy[id] / r.Duration * window
}

// MeanRingEnergyPerWindow averages EnergyPerWindow over all nodes of a
// ring — the quantity to compare against Model.EnergyAt(x, ring).
func (r *Result) MeanRingEnergyPerWindow(net *topology.Network, ring int, window float64) float64 {
	ids := net.NodesAtRing(ring)
	if len(ids) == 0 {
		return 0
	}
	sum := 0.0
	for _, id := range ids {
		sum += r.EnergyPerWindow(id, window)
	}
	return sum / float64(len(ids))
}

// RunContext executes the configured simulation to completion. When ctx
// is done the event loop aborts within a few thousand events and the
// context's error is returned (no partial result). An uncancellable ctx
// — nil, context.Background() — is never polled, so threading a
// cancellable context changes nothing but the ability to abort.
//
// A config that injects failures (Failures or Battery) runs under the
// fault runner's contract with no phases and no re-bargaining; see
// RunFaultyContext.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.faulty() {
		return RunFaultyContext(ctx, cfg, nil, nil)
	}
	return newRunner(cfg, []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}, fixedRun, nil).run(ctx)
}

// runMode is the contract of the entry point a runner serves. The modes
// differ only in what a MAC layer that cannot be built does to the run
// and in how arrivals are generated.
type runMode uint8

const (
	// fixedRun serves RunContext: one epoch; without a traffic model the
	// chained periodic generator samples.
	fixedRun runMode = iota
	// phasedRun serves RunPhasedContext: a MAC layer that cannot be
	// built fails the run with its phase index, and a phase boundary
	// retires every arrival of the closing epoch.
	phasedRun
	// faultyRun serves RunFaultyContext: a vector that cannot be deployed
	// past the first epoch degrades to the last one that deployed, and
	// the periodic generator is materialized so epochs can splice it.
	faultyRun
)

// runner executes one simulation as a sequence of epochs: one for a
// fixed run, one per phase, and one more per liveness change when the
// config injects faults. Every epoch installs a fresh MAC layer over the
// same per-node state — forwarding queues, randomness streams, metrics
// and energy meters carry across — and splices each node's arrival
// schedule from its cursor. Between epochs the engine drops everything
// the old regime had pending and the medium quiesces.
type runner struct {
	cfg     *Config
	mode    runMode
	eng     *Engine
	med     *Medium
	metrics *Metrics
	nodes   []*node
	phases  []PhaseConfig
	reb     Rebargainer
	fs      *faultState // nil unless cfg.faulty()

	phase  int        // index of the active phase
	params opt.Vector // the vector the next install deploys
	good   opt.Vector // the last vector that deployed

	// arrivals[i] is node i's full arrival schedule, nil when the
	// chained periodic generator samples instead; cursor[i] indexes its
	// next arrival.
	arrivals [][]float64
	cursor   []int
	nextID   int64
	arena    packetArena

	rebargains int
	degraded   int
}

// newRunner builds the world of one run: engine, medium, nodes, arrival
// schedules and, when cfg injects faults, the fault state the medium
// reports radio-state changes to. Failure-free runs keep a nil
// Medium.fault, so their hot path stays draw-free.
func newRunner(cfg Config, phases []PhaseConfig, mode runMode, reb Rebargainer) *runner {
	n := cfg.Network.N()
	r := &runner{cfg: &cfg, mode: mode, eng: NewEngine(), metrics: &Metrics{},
		nodes: make([]*node, n), phases: phases, reb: reb}
	// A matching shared world supplies the neighbour, parent and
	// link-PRR/gain tables. The per-directed-link draw streams are
	// per-seed mutable state, so they are always fresh.
	var sh *Materialized
	parent := cfg.Network.Parent
	if cfg.Shared.structuralFor(&cfg) {
		sh = cfg.Shared
		parent = func(id topology.NodeID) topology.NodeID { return sh.parents[id] }
	}
	r.med = newMedium(r.eng, cfg.Network, cfg.Radio, sh)
	r.med.enableLoss(cfg.Seed)
	if cfg.Capture {
		r.med.enableCapture(cfg.CaptureDB)
	}
	// Every node draws from its own stream, so runs stay reproducible
	// even if one node's draw count changes.
	for i := range r.nodes {
		id := topology.NodeID(i)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*1000003 + 1))
		r.nodes[i] = newNode(r.eng, cfg.Network, r.med, id, parent(id), rng, r.metrics, cfg.Payload)
	}
	if cfg.Traffic != nil || mode == faultyRun {
		// Deterministic in the seed: shared from the attached world when
		// it matches, derived fresh otherwise. Runners only read it.
		if r.arrivals = cfg.Shared.arrivalsFor(&cfg); r.arrivals == nil {
			r.arrivals = make([][]float64, n)
			for i := 1; i < n; i++ {
				r.arrivals[i] = arrivalSchedule(cfg, topology.NodeID(i))
			}
		}
		r.cursor = make([]int, n)
	}
	if cfg.faulty() {
		r.fs = newFaultState(r)
		r.med.fault = r.fs
	}
	return r
}

// run executes the epochs and assembles the result.
func (r *runner) run(ctx context.Context) (*Result, error) {
	for k, ph := range r.phases {
		r.phase, r.params = k, ph.Params
		now := r.eng.Now()
		// Degradation-aware phase entry: the planned vector was bargained
		// over the full topology; with nodes down, re-solve for the
		// survivors before deploying it.
		if r.fs != nil && r.fs.deadCount > 0 {
			r.consultRebargain(now)
		}
		if err := r.install(now); err != nil {
			if r.mode == phasedRun {
				err = fmt.Errorf("sim: phase %d: %w", k, err)
			}
			return nil, err
		}
		if err := r.eng.RunContext(ctx, ph.Until); err != nil {
			return nil, fmt.Errorf("sim: run aborted: %w", err)
		}
		if ph.Until < r.cfg.Duration {
			r.eng.DropPending()
			r.med.quiesce()
		}
	}
	if r.fs != nil {
		r.fs.settle(r.cfg.Duration)
		r.med.fault = nil
	}
	return r.result(), nil
}

// install deploys the current parameter vector: MACs rebuilt for every
// node, handlers installed only on the living, each living node started
// with its arrivals up to the phase end, and on fault-injected runs the
// death timers and failure points re-armed (the epoch's DropPending
// discarded them with the old regime's events).
func (r *runner) install(now float64) error {
	macs, err := r.buildMACs(r.params)
	if err != nil {
		if r.mode != faultyRun || r.good == nil {
			return err
		}
		// An infeasible rebargained vector (e.g. an LMAC slot count the
		// schedule cannot satisfy): degrade to the last-good vector.
		r.degraded++
		r.params = r.good
		if macs, err = r.buildMACs(r.params); err != nil {
			return err
		}
	}
	r.good = r.params
	for i, mac := range macs {
		x := r.med.Transceiver(topology.NodeID(i))
		if r.down(i) {
			x.SetHandler(nil)
		} else {
			x.SetHandler(mac)
		}
	}
	end := r.phases[r.phase].Until
	for i, mac := range macs {
		if r.down(i) {
			continue
		}
		mac.start()
		if i == 0 {
			continue
		}
		if r.arrivals == nil {
			r.periodic(mac, topology.NodeID(i))
		} else {
			r.splice(mac, topology.NodeID(i), now, end)
		}
	}
	if r.fs != nil {
		r.fs.rearm()
	}
	return nil
}

// down reports whether node i is dead.
func (r *runner) down(i int) bool { return r.fs != nil && !r.fs.alive[i] }

// splice schedules node id's arrivals in [now, end] from its cursor as
// one chained callback: the first relative to now, then the schedule's
// successive differences. The cursor advances as each arrival fires, so
// the next epoch resumes exactly where a dropped chain stopped. At time
// zero the first delta times[0]-0 is bit-identical to times[0].
func (r *runner) splice(mac macLayer, id topology.NodeID, now, end float64) {
	times := r.arrivals[id]
	c := r.cursor[id]
	// Arrivals before now were missed: a node that was down did not
	// sample, so they are neither generated nor lost. At a boundary of
	// a fault-free phased run the arrivals at now belong to the closing
	// epoch too: one whose chained instant rounded past the boundary was
	// dropped with it (the fault runner re-fires it instead).
	for c < len(times) && (times[c] < now || times[c] == now && r.phase > 0 && r.mode != faultyRun) {
		c++
	}
	r.cursor[id] = c
	lim := c
	for lim < len(times) && times[lim] <= end {
		lim++
	}
	if lim == c {
		return
	}
	var tick func()
	tick = func() {
		j := r.cursor[id]
		r.sample(mac, id)
		r.cursor[id] = j + 1
		if j+1 < lim {
			r.eng.After(times[j+1]-times[j], tick)
		}
	}
	r.eng.After(times[c]-now, tick)
}

// periodic wires the legacy phase-shifted periodic sampling of one node
// as a self-rearming callback. Only fixed runs without a traffic model
// use it; the fault runner splices the same process materialized by
// arrivalSchedule. The two are not interchangeable bit for bit: the
// chain leaves one tick pending past the horizon, which shows in
// WheelPromotions and PeakPending.
func (r *runner) periodic(mac macLayer, id topology.NodeID) {
	if r.cfg.SampleRate <= 0 {
		return
	}
	period := 1 / r.cfg.SampleRate
	genRng := rand.New(rand.NewSource(r.cfg.Seed ^ (int64(id)*2654435761 + 7)))
	var tick func()
	tick = func() {
		r.sample(mac, id)
		r.eng.After(period, tick)
	}
	r.eng.After(genRng.Float64()*period, tick)
}

// sample generates one application packet at node id. Packets come from
// the run's arena, so steady-state sampling does not hit the heap.
func (r *runner) sample(mac macLayer, id topology.NodeID) {
	r.nextID++
	p := r.arena.new()
	p.ID = r.nextID
	p.Origin = id
	p.Created = r.eng.Now()
	r.metrics.recordGenerated()
	mac.sampled(p)
}

// buildMACs constructs one protocol instance per node over the run's
// node state with the given vector. LMAC takes its slot plan from a
// matching shared world (AssignSlots is the one expensive derivation
// here); epochs that re-bargain onto a different slot count derive
// their own.
func (r *runner) buildMACs(params opt.Vector) ([]macLayer, error) {
	net := r.cfg.Network
	var slots []int
	var bySlot map[int]topology.NodeID
	if r.cfg.Protocol == "lmac" {
		frameSlots := int(math.Round(params[0]))
		if slots, bySlot = r.cfg.Shared.slotPlanFor(r.cfg, frameSlots); slots == nil {
			var err error
			if slots, bySlot, err = slotPlan(net, frameSlots); err != nil {
				return nil, err
			}
		}
	}
	macs := make([]macLayer, len(r.nodes))
	for i, nd := range r.nodes {
		switch r.cfg.Protocol {
		case "xmac":
			macs[i] = newXMACNode(nd, params[0])
		case "bmac":
			macs[i] = newBMACNode(nd, params[0])
		case "dmac":
			macs[i] = newDMACNode(nd, params[0], params[1], net.Depth())
		case "lmac":
			macs[i] = newLMACNode(nd, int(math.Round(params[0])), params[1], slots[i], bySlot)
		}
	}
	return macs, nil
}

// result assembles the public result after the last epoch.
func (r *runner) result() *Result {
	n := len(r.nodes)
	res := &Result{
		Duration:           r.cfg.Duration,
		Metrics:            r.metrics,
		Collisions:         r.med.Collisions(),
		ChannelLosses:      r.med.ChannelLosses(),
		Captures:           r.med.Captures(),
		Events:             r.eng.Processed(),
		PeakPending:        r.eng.PeakPending(),
		WheelPromotions:    r.eng.OverflowPromotions(),
		Energy:             make([]float64, n),
		ListenTime:         make([]float64, n),
		TxTime:             make([]float64, n),
		Rebargains:         r.rebargains,
		DegradedRebargains: r.degraded,
	}
	for i := 0; i < n; i++ {
		x := r.med.Transceiver(topology.NodeID(i))
		x.finish()
		res.Energy[i] = x.Energy()
		res.ListenTime[i] = x.TimeIn(radio.Listen) + x.TimeIn(radio.Rx)
		res.TxTime[i] = x.TimeIn(radio.Tx)
	}
	if fs := r.fs; fs != nil {
		res.Deaths = fs.deaths
		res.Recoveries = fs.recoveries
		res.DeadAtEnd = fs.deadCount
		res.StrandedPackets = fs.stranded
		res.DeadNodeSeconds = fs.deadSeconds
		res.PartitionSeconds = fs.partSeconds
	}
	return res
}
