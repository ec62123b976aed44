package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"github.com/edmac-project/edmac/internal/lazyrand"
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
	// Traffic is the application workload: every node replays the
	// model's precomputed arrival schedule (periodic, bursty,
	// event-correlated, heterogeneous, ...), derived from Seed so runs
	// stay exactly reproducible. Nil means no node samples.
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
	// schedules. A world that does not fit this config is ignored and
	// one that fits derives what it lacks, so a mismatched Shared never
	// changes results.
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
	// Events is the number of simulator events processed, counting
	// each step the engine never queued as the event it stands for: an
	// idle X-MAC or B-MAC poll step (a window close or a poll of a
	// dozing node) and every LMAC slot step but the owned slot's start
	// (a slot's start or end, a control timeout, a frame rollover),
	// each folded in later. It does not depend on the folds.
	Events uint64
	// PeakPending is the high-water mark of the scheduler's pending
	// event count — how deep the event queue ever got. Folded steps
	// were never queued, so they do not count.
	PeakPending int
	// WheelPromotions counts events that landed beyond the timing
	// wheel's one-second horizon and were later promoted into the
	// wheel in bulk: arrival and fault instants, the real poll that
	// ends a dozing battery node's fold, and an LMAC owned slot's start
	// when a frame is longer than a second (a folding node queues it a
	// frame ahead). Folded steps never enter the wheel.
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
// and in which epoch an arrival exactly on a boundary belongs to.
type runMode uint8

const (
	// fixedRun serves RunContext: one epoch.
	fixedRun runMode = iota
	// phasedRun serves RunPhasedContext: a MAC layer that cannot be
	// built fails the run with its phase index, and a phase boundary
	// retires every arrival of the closing epoch.
	phasedRun
	// faultyRun serves RunFaultyContext: a vector that cannot be deployed
	// past the first epoch degrades to the last one that deployed.
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
	world   *Materialized // the one source of the run's tables
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

	// arrivals[i] is node i's full arrival schedule; cursor[i] indexes
	// its next arrival.
	arrivals [][]float64
	cursor   []int
	arena    packetArena

	rebargains int
	degraded   int

	// plans holds the LMAC slot plans this run derived, one per frame
	// size it deployed (see lmacPlan).
	plans []*lmacPlan
}

// newRunner builds the state of one run over its world (cfg.Shared
// when it fits, else one derived here): engine, medium, nodes, arrival
// schedules and, when cfg injects faults, the fault state the medium
// reports radio-state changes to. Failure-free runs keep a nil
// Medium.fault, so their hot path stays draw-free.
func newRunner(cfg Config, phases []PhaseConfig, mode runMode, reb Rebargainer) *runner {
	n := cfg.Network.N()
	w := cfg.Shared
	if !w.fits(&cfg) {
		w = newWorld(&cfg)
	}
	r := &runner{cfg: &cfg, mode: mode, world: w, eng: NewEngine(), metrics: &Metrics{},
		nodes: make([]*node, n), phases: phases, reb: reb}
	// The per-directed-link draw streams are per-seed mutable state, so
	// they are always fresh.
	r.med = newMedium(r.eng, w, cfg.Radio)
	r.med.enableLoss(cfg.Seed)
	if cfg.Capture {
		r.med.enableCapture(cfg.CaptureDB)
	}
	// Every node draws from its own stream, so runs stay reproducible
	// even if one node's draw count changes. Each is math/rand's stream
	// for its seed, bit for bit, built by lazyrand: a node computes only
	// the state words it reads, one allocation holds every node's
	// source, and only a node that draws more than a few values
	// allocates its generator's full state.
	srcs := make([]lazyrand.Source, n)
	for i := range r.nodes {
		id := topology.NodeID(i)
		srcs[i].Seed(cfg.Seed + int64(i)*1000003 + 1)
		r.nodes[i] = newNode(r.eng, cfg.Network, r.med, id, w.parents[id], rand.New(&srcs[i]), r.metrics, cfg.Payload)
	}
	r.arrivals = w.arrivalsFor(&cfg) // runners only read it
	r.cursor = make([]int, n)
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
		r.splice(mac, topology.NodeID(i), now, end)
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

// sample generates one application packet at node id. Packets come from
// the run's arena, so steady-state sampling does not hit the heap.
func (r *runner) sample(mac macLayer, id topology.NodeID) {
	p := r.arena.new()
	p.Origin = id
	p.Created = r.eng.Now()
	r.metrics.recordGenerated()
	mac.sampled(p)
}

// buildMACs constructs one protocol instance per node over the run's
// node state with the given vector. LMAC takes its slot plan from
// lmacPlan.
func (r *runner) buildMACs(params opt.Vector) ([]macLayer, error) {
	var plan *lmacPlan
	if r.cfg.Protocol == "lmac" {
		var err error
		if plan, err = r.lmacPlan(int(math.Round(params[0]))); err != nil {
			return nil, err
		}
	}
	macs := make([]macLayer, len(r.nodes))
	var peers []*lmacNode
	var offsets []float64
	if plan != nil {
		peers = make([]*lmacNode, len(r.nodes))
		offsets = lmacOffsets(plan.slots, params[1])
	}
	for i, nd := range r.nodes {
		switch r.cfg.Protocol {
		case "xmac":
			macs[i] = newXMACNode(nd, params[0], r.cfg.Duration)
		case "bmac":
			macs[i] = newBMACNode(nd, params[0], r.cfg.Duration)
		case "dmac":
			macs[i] = newDMACNode(nd, params[0], params[1], r.world.depth)
		case "lmac":
			peers[i] = newLMACNode(nd, plan, offsets, r.cfg.Duration, peers)
			macs[i] = peers[i]
		}
	}
	return macs, nil
}

// lmacPlan is the LMAC slot plan for one frame size: each node's slot,
// which slots some node owns and which neighbour each node hears in
// each slot (see lmacHearing), or why the frame cannot be scheduled.
type lmacPlan struct {
	slots    int
	owned    []int
	occupied []bool
	hear     []lmacLink
	err      error
}

// lmacPlan returns the LMAC slot plan for a frame of slots slots. Each
// frame size is looked up once per run, so a re-bargained frame the
// world was not built for re-runs the two-hop colouring only the first
// time an epoch deploys it; an unschedulable one is remembered too.
// The memo is the run's own: the world stays read-only.
func (r *runner) lmacPlan(slots int) (*lmacPlan, error) {
	for _, p := range r.plans {
		if p.slots == slots {
			return p, p.err
		}
	}
	p := &lmacPlan{slots: slots}
	if p.owned, p.occupied, p.err = r.world.slotPlanFor(slots); p.err == nil {
		p.hear = lmacHearing(r.world.nbrs, p.owned, slots)
	}
	r.plans = append(r.plans, p)
	return p, p.err
}

// result assembles the public result after the last epoch. Held
// nodes fold their steps up to the horizon first, so Events and the
// energy meters count every step.
func (r *runner) result() *Result {
	r.med.foldAll(false)
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
