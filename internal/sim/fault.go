package sim

import (
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/edmac-project/edmac/internal/channel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/topology"
)

// FailureEvent is one scheduled node crash. A crashed node powers off:
// its radio goes silent, its forwarding queue is lost (the packets are
// counted as stranded), and every handshake it was part of dissolves at
// the instant of the crash.
type FailureEvent struct {
	// Node is the crashing node; the sink (node 0) cannot crash.
	Node topology.NodeID
	// At is the crash instant in seconds.
	At float64
	// Duration is how long the node stays down; 0 means it never
	// recovers. A recovering node reboots fresh — empty queue, new MAC
	// state — but keeps its energy history (batteries do not recharge).
	Duration float64
}

// FailureConfig declares a run's failure process. With Events set the
// schedule is explicit; otherwise MTBF/MTTR select the churn model:
// every non-sink node alternates exponentially distributed up and down
// times drawn from a deterministic per-node splitmix stream (the same
// stream construction as the per-link loss draws), so equal seeds
// reproduce the exact same churn.
type FailureConfig struct {
	// Events is an explicit crash schedule; when non-empty it overrides
	// the churn model.
	Events []FailureEvent
	// MTBF is the mean up time in seconds (churn model).
	MTBF float64
	// MTTR is the mean down time in seconds; 0 makes every churn crash
	// permanent.
	MTTR float64
}

// BatteryConfig gives every non-sink node a finite energy store. A node
// whose cumulative consumption reaches Capacity dies at the exact
// depletion instant (computed per radio-state change, not sampled) and
// never recovers. The sink is mains-powered and exempt.
type BatteryConfig struct {
	// Capacity is the per-node energy budget in joules.
	Capacity float64
}

// faulty reports whether the configuration injects failures.
func (c Config) faulty() bool { return c.Failures != nil || c.Battery != nil }

// validateFaults checks the failure and battery blocks (nil-safe).
func (c Config) validateFaults() error {
	if f := c.Failures; f != nil {
		if len(f.Events) > 0 {
			n := c.Network.N()
			for i, ev := range f.Events {
				if ev.Node <= 0 || int(ev.Node) >= n {
					return fmt.Errorf("sim: failure event %d: node %d out of range (sink cannot crash)", i, ev.Node)
				}
				if ev.At < 0 || math.IsNaN(ev.At) || math.IsInf(ev.At, 0) {
					return fmt.Errorf("sim: failure event %d: crash time %v must be non-negative and finite", i, ev.At)
				}
				if ev.Duration < 0 || math.IsNaN(ev.Duration) || math.IsInf(ev.Duration, 0) {
					return fmt.Errorf("sim: failure event %d: duration %v must be non-negative and finite", i, ev.Duration)
				}
			}
		} else {
			if f.MTBF <= 0 || math.IsNaN(f.MTBF) || math.IsInf(f.MTBF, 0) {
				return fmt.Errorf("sim: churn MTBF %v must be positive and finite", f.MTBF)
			}
			if f.MTTR < 0 || math.IsNaN(f.MTTR) || math.IsInf(f.MTTR, 0) {
				return fmt.Errorf("sim: churn MTTR %v must be non-negative and finite", f.MTTR)
			}
		}
	}
	if b := c.Battery; b != nil {
		if b.Capacity <= 0 || math.IsNaN(b.Capacity) || math.IsInf(b.Capacity, 0) {
			return fmt.Errorf("sim: battery capacity %v must be positive and finite", b.Capacity)
		}
	}
	return nil
}

// Rebargainer is the degradation-aware re-bargaining hook: at every
// topology-change epoch (a node death or recovery, or a phase start
// while nodes are down) the runner asks it for the parameter vector to
// deploy over the surviving topology. alive[i] reports node i's
// liveness and is read-only, valid only during the call; phase indexes
// the active PhaseConfig. An error (an infeasible re-bargain) degrades
// the epoch to the last successfully deployed vector instead of
// aborting the run — the relaxed-mode convention.
type Rebargainer func(alive []bool, phase int, at float64) (opt.Vector, error)

// faultStreamSalt decorrelates per-node failure streams from the
// per-link loss streams that share the splitmix construction.
const faultStreamSalt int64 = 0x5DEECE66D

// faultPoint is one materialized liveness transition.
type faultPoint struct {
	at      float64
	node    topology.NodeID
	recover bool
	fired   bool
}

// faultPoints materializes the failure schedule: explicit events
// verbatim, or per-node churn drawn from deterministic splitmix
// streams. Points are sorted by time (node, then kind, break ties) so
// the schedule is reproducible independent of map or draw order.
func faultPoints(f *FailureConfig, net *topology.Network, seed int64, duration float64) []faultPoint {
	if f == nil {
		return nil
	}
	var pts []faultPoint
	add := func(node topology.NodeID, at, downFor float64) {
		if at >= duration {
			return
		}
		pts = append(pts, faultPoint{at: at, node: node})
		if downFor > 0 && at+downFor < duration {
			pts = append(pts, faultPoint{at: at + downFor, node: node, recover: true})
		}
	}
	if len(f.Events) > 0 {
		for _, ev := range f.Events {
			add(ev.Node, ev.At, ev.Duration)
		}
	} else {
		n := net.N()
		for i := 1; i < n; i++ {
			id := topology.NodeID(i)
			stream := channel.NewDrawStream(channel.DirectedLinkSeed(seed^faultStreamSalt, id, id))
			exp := func(mean float64) float64 { return -mean * math.Log(1-stream.Float64()) }
			t := 0.0
			for {
				t += exp(f.MTBF)
				if t >= duration {
					break
				}
				if f.MTTR <= 0 {
					add(id, t, 0)
					break
				}
				down := exp(f.MTTR)
				add(id, t, down)
				t += down
				if t >= duration {
					break
				}
			}
		}
	}
	sort.SliceStable(pts, func(a, b int) bool {
		pa, pb := pts[a], pts[b]
		if pa.at != pb.at {
			return pa.at < pb.at
		}
		if pa.node != pb.node {
			return pa.node < pb.node
		}
		return pa.recover && !pb.recover
	})
	return pts
}

// faultState is the failure side of a fault-injected run: liveness,
// the battery meters, the failure points and the survivability
// integrals. It hangs off the Medium so the transceiver state machine
// can notify it of radio-state changes (battery depletion instants are
// recomputed exactly at each transition); runs without failures never
// create one, so the failure-free hot path stays draw-free.
type faultState struct {
	run *runner

	alive       []bool
	batteryDead []bool
	deadCount   int
	points      []faultPoint

	capacity   []float64 // per node, joules; 0 = mains-powered
	deathTimer []Timer
	nodeArg    []any // pre-boxed node ids for alloc-free AtCall
	deathCb    func(any)

	deaths      int
	recoveries  int
	stranded    int
	deadSeconds float64
	partSeconds float64
	lastAccount float64
	partitioned bool
}

// newFaultState materializes r's failure schedule and battery budgets
// with every node alive.
func newFaultState(r *runner) *faultState {
	cfg := r.cfg
	n := cfg.Network.N()
	fs := &faultState{
		run:         r,
		alive:       make([]bool, n),
		batteryDead: make([]bool, n),
		points:      faultPoints(cfg.Failures, cfg.Network, cfg.Seed, cfg.Duration),
	}
	for i := range fs.alive {
		fs.alive[i] = true
	}
	if cfg.Battery != nil {
		fs.capacity = make([]float64, n)
		fs.deathTimer = make([]Timer, n)
		fs.nodeArg = make([]any, n)
		for i := 1; i < n; i++ {
			fs.capacity[i] = cfg.Battery.Capacity
			fs.nodeArg[i] = topology.NodeID(i)
		}
		fs.deathCb = func(a any) { fs.batteryDeath(a.(topology.NodeID)) }
	}
	return fs
}

// RunFaultyContext executes a fault-injected simulation: the failure
// schedule and battery accounting of cfg drive node crashes, recoveries
// and battery deaths, each handled as a reconfiguration epoch through
// the same DropPending+quiesce machinery phased runs use at boundaries —
// so a dying node's in-flight transmissions, committed frames and
// pending timers are reclaimed with no pool leaks and no dangling
// callbacks.
//
// phases may be nil for a single-regime run (cfg.Params throughout);
// otherwise they follow the RunPhasedContext contract. reb may be nil
// for a static run (the deployed vector never reacts to deaths); see
// Rebargainer for the adaptive convention. A phase vector that cannot
// be deployed (an LMAC frame the network cannot schedule) fails the run
// only in the first epoch; later it degrades to the last vector that
// deployed and counts in DegradedRebargains. Equal (cfg, phases)
// reproduce the run exactly, including the churn, and ctx follows
// RunContext's cancellation contract.
func RunFaultyContext(ctx context.Context, cfg Config, phases []PhaseConfig, reb Rebargainer) (*Result, error) {
	if len(phases) == 0 {
		phases = []PhaseConfig{{Params: cfg.Params, Until: cfg.Duration}}
	}
	if err := validatePhases(cfg, phases); err != nil {
		return nil, err
	}
	return newRunner(cfg, phases, faultyRun, reb).run(ctx)
}

// settle closes the survivability integrals up to now.
func (fs *faultState) settle(now float64) {
	if dt := now - fs.lastAccount; dt > 0 {
		fs.deadSeconds += float64(fs.deadCount) * dt
		if fs.partitioned {
			fs.partSeconds += dt
		}
	}
	fs.lastAccount = now
}

// refreshPartition recomputes whether any alive node's tree path to the
// sink crosses a dead relay. Parents never re-route around a dead node
// — stranding at dead relays is exactly the phenomenon the partition
// clock measures.
func (fs *faultState) refreshPartition() {
	fs.partitioned = false
	parents := fs.run.world.parents
	for i := 1; i < len(fs.alive); i++ {
		if !fs.alive[i] {
			continue
		}
		for id := topology.NodeID(i); id != 0; {
			id = parents[id]
			if id != 0 && !fs.alive[id] {
				fs.partitioned = true
				return
			}
		}
	}
}

// kill takes a node down at the current instant: its queue is counted
// as stranded and cleared, and the epoch swap reclaims everything it
// had in flight.
func (fs *faultState) kill(id topology.NodeID) {
	now := fs.run.eng.Now()
	fs.settle(now)
	fs.alive[id] = false
	fs.deadCount++
	fs.deaths++
	fs.stranded += fs.run.nodes[id].queueLen()
	fs.run.nodes[id].clearQueue()
	fs.epoch(now)
}

// revive brings a churn-crashed node back: fresh MAC state, empty
// queue, energy history intact (the battery did not recharge while the
// node was down — off time is simply not metered).
func (fs *faultState) revive(id topology.NodeID) {
	now := fs.run.eng.Now()
	fs.settle(now)
	fs.alive[id] = true
	fs.deadCount--
	fs.recoveries++
	fs.epoch(now)
}

// batteryDeath is the depletion callback: a permanent crash.
func (fs *faultState) batteryDeath(id topology.NodeID) {
	if !fs.alive[id] {
		// Already down (churn crash); deplete silently — the node must
		// simply never recover.
		fs.batteryDead[id] = true
		return
	}
	fs.batteryDead[id] = true
	fs.kill(id)
}

// firePoint executes one materialized liveness transition.
func (fs *faultState) firePoint(i int) {
	pt := &fs.points[i]
	pt.fired = true
	if pt.recover && (fs.batteryDead[pt.node] || fs.alive[pt.node]) || !pt.recover && !fs.alive[pt.node] {
		return
	}
	// The point was queued at the regime's install, after its MACs
	// started: folded steps due exactly now ran before it only when
	// that install queued them too.
	fs.run.med.foldAll(true)
	if pt.recover {
		fs.revive(pt.node)
	} else {
		fs.kill(pt.node)
	}
}

// epoch is the reconfiguration at a liveness change: the engine drops
// every pending event of the old regime, the medium quiesces (in-flight
// and committed transmissions reclaimed, carriers reset, radios settled
// — the same machinery phased runs trust at boundaries), dead radios
// are halted so their energy meters freeze, and a fresh regime is
// installed over the surviving topology.
func (fs *faultState) epoch(now float64) {
	r := fs.run
	r.eng.DropPending()
	r.med.quiesce()
	for i := range r.med.halted {
		r.med.halted[i] = !fs.alive[i]
	}
	fs.refreshPartition()
	r.consultRebargain(now)
	if err := r.install(now); err != nil {
		// Unreachable with validated phase vectors: install falls back to
		// the last-good vector, which deployed successfully before.
		panic(fmt.Sprintf("sim: fault epoch at t=%v: %v", now, err))
	}
}

// rearm schedules what an epoch's DropPending discarded: the battery
// death timers of the living and every unfired failure point.
func (fs *faultState) rearm() {
	if fs.capacity != nil {
		for i := 1; i < len(fs.alive); i++ {
			if fs.alive[i] {
				fs.armDeathTimer(fs.run.med.xcvrs[i])
			}
		}
	}
	for i := range fs.points {
		if fs.points[i].fired {
			continue
		}
		i := i
		fs.run.eng.At(fs.points[i].at, func() { fs.firePoint(i) })
	}
}

// consultRebargain asks the hook for a survivor-aware vector; failures
// and invalid vectors degrade to the currently deployed vector
// (counted, never fatal).
func (r *runner) consultRebargain(now float64) {
	if r.reb == nil {
		return
	}
	r.rebargains++
	v, err := r.reb(r.fs.alive, r.phase, now)
	if err == nil {
		probe := *r.cfg
		probe.Params = v
		err = probe.Validate()
	}
	if err != nil {
		r.degraded++
		return
	}
	r.params = v
}

// onState is the battery meter's radio-state hook: at every transition
// the depletion instant is recomputed exactly from the residual energy
// and the new state's draw, and the node's death timer re-armed. Called
// only on fault-injected runs (Medium.fault is nil otherwise).
func (fs *faultState) onState(x *Transceiver) {
	if fs.capacity == nil {
		return
	}
	id := x.id
	if fs.capacity[id] <= 0 || !fs.alive[id] {
		return
	}
	fs.armDeathTimer(x)
}

// armDeathTimer (re)schedules node x's battery death from its residual
// at its last transition, which is now except after a fold. A node the
// medium holds keeps it disarmed (see Medium.hold).
func (fs *faultState) armDeathTimer(x *Transceiver) {
	id := x.id
	if x.med.held(id) {
		return
	}
	eng := fs.run.eng
	fs.deathTimer[id].Cancel()
	residual := fs.capacity[id] - x.Energy()
	if residual <= 0 {
		fs.deathTimer[id] = eng.AtCall(eng.Now(), fs.deathCb, fs.nodeArg[id])
		return
	}
	draw := x.prof.Power(x.med.states[x.id])
	if draw <= 0 {
		return // this state is free; depletion postponed until the next transition
	}
	fs.deathTimer[id] = eng.AtCall(x.med.since[id]+residual/draw, fs.deathCb, fs.nodeArg[id])
}

// Battery stretch of the idle fold (see lpl.doze): a dozing battery
// node's chain folds for at most maxStretch poll cycles, and keeps
// stretchMargin cycles of worst-case draw in hand.
const (
	maxStretch    = 256
	stretchMargin = 2
)

// stretch returns how many poll cycles a battery node may fold from
// now: the whole cycles of worst-case draw (cycle joules each) its
// residual provably survives, less stretchMargin, at most maxStretch.
// Over that span no depletion instant can fall, so the death timer need
// not follow each folded transition. -1 means no limit: the node is
// mains-powered or the run has no batteries (nil-receiver safe).
func (fs *faultState) stretch(x *Transceiver, cycle float64) int {
	if fs == nil || fs.capacity == nil || fs.capacity[x.id] <= 0 {
		return -1
	}
	m := x.med
	residual := fs.capacity[x.id] - x.Energy() - (m.eng.Now()-m.since[x.id])*x.prof.Power(m.states[x.id])
	k := math.Floor(residual/cycle) - stretchMargin
	switch {
	case k >= maxStretch:
		return maxStretch
	case k > 0:
		return int(k)
	}
	return 0
}
