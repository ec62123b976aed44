package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/adapt"
	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// This file is the traced replay of one suite cell: the calls the
// edmac Client makes for a (scenario, protocol) cell, made here one
// module at a time with a span around each, in the Client's order. The
// replayed cell must encode byte-identically to the Client's own cell,
// which proves the spans time the same work.

// replayStats are the counters the replay gathers where the work happens,
// plus a few recorded inputs the layer microbenchmarks replay later.
type replayStats struct {
	evals       atomic.Int64 // macmodel evaluations inside traced solves
	events      atomic.Int64 // simulator events
	promotions  atomic.Int64 // timing-wheel promotions
	peakPending atomic.Int64
	rebargains  atomic.Int64 // adapt re-bargain attempts (phase plans and survivor hooks)
	rebargainOK atomic.Int64
	mismatches  atomic.Int64 // replayed outputs that differ from the program's

	mu         sync.Mutex
	games      []game       // the first few solved games, for macmodel.ns_per_eval
	sims       []sim.Config // the first few static runs, for sim.allocs_per_run
	parBusy    float64      // summed cell time inside par.ForEach, s
	parWall    float64      // par.ForEach wall time × workers, s
	parTail    float64      // idle worker time after each worker's last cell, s
	parCellMax float64      // longest cell, s
}

// game is one solved bargaining problem: the model and its requirements.
type game struct {
	model macmodel.Model
	req   core.Requirements
}

const keepInputs = 4

func (st *replayStats) keepGame(g game) {
	st.mu.Lock()
	if len(st.games) < keepInputs {
		st.games = append(st.games, g)
	}
	st.mu.Unlock()
}

func (st *replayStats) keepSim(cfg sim.Config) {
	st.mu.Lock()
	if len(st.sims) < keepInputs {
		st.sims = append(st.sims, cfg)
	}
	st.mu.Unlock()
}

// countingModel counts every Energy and Delay evaluation the solver
// makes and times none of them: a clock read per ~20 ns evaluation would
// distort the solve it measures.
type countingModel struct {
	macmodel.Model
	n *atomic.Int64
}

func (m countingModel) Energy(x opt.Vector) float64 { m.n.Add(1); return m.Model.Energy(x) }
func (m countingModel) Delay(x opt.Vector) float64  { m.n.Add(1); return m.Model.Delay(x) }

// replayer records spans into tr and counters into st.
type replayer struct {
	tr *tracer
	st *replayStats
}

// solve plays one relaxed game under an "nbs.solve" span.
func (r replayer) solve(parent spanID, op int64, protocol string, env macmodel.Env, req core.Requirements) (core.Tradeoff, error) {
	m, err := macmodel.New(protocol, env)
	if err != nil {
		return core.Tradeoff{}, err
	}
	var n atomic.Int64
	id := r.tr.begin("nbs.solve", parent, op)
	t, err := core.OptimizeRelaxed(countingModel{m, &n}, req)
	r.tr.end(id)
	r.st.evals.Add(n.Load())
	r.st.keepGame(game{m, req})
	return t, err
}

// simulate runs one simulation under a span and records its counters.
func (r replayer) simulate(name string, parent spanID, op int64, run func(self spanID) (*sim.Result, error)) (*sim.Result, error) {
	id := r.tr.begin(name, parent, op)
	res, err := run(id)
	r.tr.end(id)
	if err == nil {
		r.st.events.Add(int64(res.Events))
		r.st.promotions.Add(int64(res.WheelPromotions))
		for {
			cur := r.st.peakPending.Load()
			if int64(res.PeakPending) <= cur || r.st.peakPending.CompareAndSwap(cur, int64(res.PeakPending)) {
				break
			}
		}
	}
	return res, err
}

// matScenario is one materialized builtin with the analytic environment
// the Client derives from it.
type matScenario struct {
	spec     scenario.Spec
	mat      *scenario.Materialized
	ring     topology.RingModel
	env      macmodel.Env
	minSlots int
}

// prepareScenario mirrors the Client's per-scenario preparation: the
// analytic ring scenario, with a phased workload's rate blended over the
// phases the run really plays, and the LMAC slot floor.
func prepareScenario(spec scenario.Spec, mat *scenario.Materialized, duration float64, lmac bool) matScenario {
	ms := matScenario{spec: spec, mat: mat, ring: mat.EquivalentRing()}
	interval := 1 / mat.MeanRate()
	if ph, ok := mat.Traffic.(traffic.Phased); ok {
		if r := realizedMeanRate(ph, mat.Network, duration); r > 0 {
			interval = 1 / r
		}
	}
	ms.env = macmodel.Env{
		Radio:      mat.Radio,
		Rings:      ms.ring,
		SampleRate: 1 / interval,
		Window:     spec.Window,
		Payload:    spec.Payload,
	}
	if prr := mat.Network.MeanLinkPRR(); prr < 1 {
		ms.env.LinkPRR = prr
	}
	if lmac {
		ms.minSlots = mat.Network.MinSlots()
	}
	return ms
}

func realizedMeanRate(ph traffic.Phased, net *topology.Network, duration float64) float64 {
	total := 0.0
	for k, win := range ph.Windows(duration) {
		if d := win.Duration(); d > 0 {
			total += d * traffic.MeanNonSinkRate(ph.Phases[k].Model.MeanRates(net))
		}
	}
	return total / duration
}

// row is the scenario's summary row of a suite report.
func (ms *matScenario) row() edmac.SuiteScenario {
	spec, net := ms.spec, ms.mat.Network
	row := edmac.SuiteScenario{
		Name: spec.Name, Description: spec.Description,
		Topology: spec.Topology.Kind, Traffic: spec.TrafficKind(),
		Nodes: net.N(), Depth: net.Depth(), MeanDegree: net.MeanDegree(),
		RingDepth: ms.ring.Depth, RingDensity: ms.ring.Density,
		MeanRate: ms.mat.MeanRate(),
	}
	if net.Lossy() {
		row.Channel = spec.ChannelKind()
		row.MeanLinkPRR = net.MeanLinkPRR()
	}
	if spec.Failures != nil {
		row.Failures = spec.Failures.Model
	}
	if spec.Battery != nil {
		row.BatteryJ = spec.Battery.CapacityJ
	}
	return row
}

// cell replays one suite cell. seed is the cell's simulation seed, taken
// from the program's own report of that cell.
func (r replayer) cell(parent spanID, op int64, ms *matScenario, p edmac.Protocol, duration, budget float64, seed int64) edmac.SuiteCell {
	spec, mat := ms.spec, ms.mat
	maxDelay := 3 + 1.2*float64(mat.Network.Depth())
	cell := edmac.SuiteCell{Scenario: spec.Name, Protocol: p, EnergyBudget: budget, MaxDelay: maxDelay}
	req := core.Requirements{EnergyBudget: budget, MaxDelay: maxDelay}
	tr, err := r.solve(parent, op, string(p), ms.env, req)
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Params = []float64(tr.Bargain.Params.Clone())
	cell.Analytic = &edmac.SuiteAnalytic{Energy: tr.Bargain.Energy, Delay: tr.Bargain.Delay,
		Degenerate: tr.Degenerate, BudgetExceeded: tr.BudgetExceeded}
	phased := len(spec.Phases) > 0 && spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptPerPhase
	onDeath := spec.Faulty() && spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptOnDeath
	cell.Adaptive = phased || onDeath
	if phased {
		cell.Phases = r.plan(parent, op, ms, p, req, duration)
	}
	if p == edmac.SCPMAC {
		return cell
	}
	cell.Params, cell.SlotsRaised = effectiveParams(p, cell.Params, ms.minSlots)
	capture, captureDB := spec.CaptureConfig()
	cfg := sim.Config{
		Protocol: string(p), Network: mat.Network, Radio: mat.Radio,
		Params: opt.Vector(cell.Params), Traffic: mat.Traffic, Payload: spec.Payload,
		Duration: duration, Seed: seed, Capture: capture, CaptureDB: captureDB,
	}
	cfg.Failures, cfg.Battery = faultConfigOf(spec)
	r.tr.do("sim.materialize", parent, op, func() {
		if shared, err := sim.Materialize(cfg); err == nil {
			cfg.Shared = shared
		}
	})
	r.st.keepSim(cfg)
	res, err := r.simulate("sim.run", parent, op, func(spanID) (*sim.Result, error) {
		return sim.RunContext(context.Background(), cfg)
	})
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	static := suiteSimOf(seed, mat.Network, spec.Window, res)
	if !cell.Adaptive {
		cell.Sim = static
		return cell
	}
	cell.StaticSim = static
	var phases []sim.PhaseConfig
	if phased {
		phases = make([]sim.PhaseConfig, len(cell.Phases))
		for i, ph := range cell.Phases {
			if ph.Err != "" {
				cell.Err = fmt.Sprintf("adaptive phase %d: %s", i, ph.Err)
				return cell
			}
			phases[i] = sim.PhaseConfig{Params: opt.Vector(ph.Params), Until: ph.End}
		}
	}
	if spec.Faulty() {
		var hook func(alive []bool, phase int, at float64) (opt.Vector, error)
		if onDeath {
			r.tr.do("adapt.survivors", parent, op, func() { hook, err = adapt.ReplaySurvivors(mat, string(p), req) })
			if err != nil {
				cell.Err = err.Error()
				return cell
			}
		}
		res, err = r.simulate("sim.run", parent, op, func(self spanID) (*sim.Result, error) {
			var reb sim.Rebargainer
			if hook != nil {
				reb = r.rebargainer(self, op, p, ms.minSlots, hook)
			}
			return sim.RunFaultyContext(context.Background(), cfg, phases, reb)
		})
	} else {
		res, err = r.simulate("sim.run", parent, op, func(spanID) (*sim.Result, error) {
			return sim.RunPhasedContext(context.Background(), cfg, phases)
		})
	}
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Sim = suiteSimOf(seed, mat.Network, spec.Window, res)
	return cell
}

// rebargainer wraps the survivor hook in an "adapt.rebargain" span under
// the simulation that calls it, applying the suite's effective-vector
// rule like the Client's own wrapper.
func (r replayer) rebargainer(parent spanID, op int64, p edmac.Protocol, minSlots int,
	hook func(alive []bool, phase int, at float64) (opt.Vector, error)) sim.Rebargainer {
	return func(alive []bool, phase int, at float64) (opt.Vector, error) {
		id := r.tr.begin("adapt.rebargain", parent, op)
		v, err := hook(alive, phase, at)
		r.tr.end(id)
		r.st.rebargains.Add(1)
		if err != nil {
			return nil, err
		}
		r.st.rebargainOK.Add(1)
		ev, _ := effectiveParams(p, v, minSlots)
		return opt.Vector(ev), nil
	}
}

// plan replays the per-phase re-bargaining of a phased adaptive cell.
func (r replayer) plan(parent spanID, op int64, ms *matScenario, p edmac.Protocol, req core.Requirements, duration float64) []edmac.SuitePhase {
	var plan *adapt.Plan
	var err error
	r.tr.do("adapt.plan", parent, op, func() { plan, err = adapt.PlanPhases(ms.mat, string(p), req, duration) })
	if err != nil {
		return []edmac.SuitePhase{{Err: err.Error()}}
	}
	out := make([]edmac.SuitePhase, len(plan.Phases))
	for i, pp := range plan.Phases {
		r.st.rebargains.Add(1)
		row := edmac.SuitePhase{Name: ms.spec.Phases[pp.Index].Name, Start: pp.Start, End: pp.End, MeanRate: pp.MeanRate}
		if pp.Err != nil {
			row.Err = pp.Err.Error()
			out[i] = row
			continue
		}
		r.st.rebargainOK.Add(1)
		row.Params, row.SlotsRaised = effectiveParams(p, pp.Tradeoff.Bargain.Params, ms.minSlots)
		row.Analytic = &edmac.SuiteAnalytic{Energy: pp.Tradeoff.Bargain.Energy, Delay: pp.Tradeoff.Bargain.Delay,
			Degenerate: pp.Tradeoff.Degenerate, BudgetExceeded: pp.Tradeoff.BudgetExceeded}
		out[i] = row
	}
	return out
}

// effectiveParams raises an LMAC slot count to the network's
// conflict-free minimum, as the suite does before simulating.
func effectiveParams(p edmac.Protocol, bargain []float64, minSlots int) ([]float64, bool) {
	params := append([]float64(nil), bargain...)
	if p == edmac.LMAC && len(params) > 0 && int(math.Round(params[0])) < minSlots {
		params[0] = float64(minSlots)
		return params, true
	}
	return params, false
}

// faultConfigOf maps a spec's failure blocks onto the simulator's.
func faultConfigOf(s scenario.Spec) (*sim.FailureConfig, *sim.BatteryConfig) {
	var fc *sim.FailureConfig
	var bc *sim.BatteryConfig
	if f := s.Failures; f != nil {
		fc = &sim.FailureConfig{MTBF: f.MTBF, MTTR: f.MTTR}
		for _, ev := range f.Events {
			fc.Events = append(fc.Events, sim.FailureEvent{Node: topology.NodeID(ev.Node), At: ev.At, Duration: ev.Duration})
		}
	}
	if b := s.Battery; b != nil {
		bc = &sim.BatteryConfig{Capacity: b.CapacityJ}
	}
	return fc, bc
}

// suiteSimOf is the measured side of a suite cell.
func suiteSimOf(seed int64, net *topology.Network, window float64, res *sim.Result) *edmac.SuiteSim {
	m := res.Metrics
	outer := net.Depth()
	return &edmac.SuiteSim{
		Seed: seed, Nodes: net.N(),
		Generated: m.Generated(), Delivered: m.Delivered(), Duplicates: m.Duplicates(), Dropped: m.Dropped(),
		Collisions: res.Collisions, ChannelLosses: res.ChannelLosses, Captures: res.Captures,
		DeliveryRatio: m.DeliveryRatio(),
		MeanDelay:     jsonwire.FiniteOrNil(m.MeanDelay()),
		P95Delay:      jsonwire.FiniteOrNil(m.QuantileDelay(0.95)),
		OuterRingDelay: jsonwire.FiniteOrNil(m.MeanDelayFrom(func(id topology.NodeID) bool {
			return net.Ring(id) == outer
		})),
		BottleneckEnergy:   res.MeanRingEnergyPerWindow(net, 1, window),
		Deaths:             res.Deaths,
		Recoveries:         res.Recoveries,
		DeadAtEnd:          res.DeadAtEnd,
		StrandedPackets:    res.StrandedPackets,
		DeadNodeFraction:   res.DeadNodeFraction(net.N()),
		PartitionFraction:  res.PartitionFraction(),
		Rebargains:         res.Rebargains,
		DegradedRebargains: res.DegradedRebargains,
	}
}

// cellSeed is the simulation seed the program reported for a cell (0
// for analytic-only or failed cells, which never simulate).
func cellSeed(c edmac.SuiteCell) int64 {
	switch {
	case c.StaticSim != nil:
		return c.StaticSim.Seed
	case c.Sim != nil:
		return c.Sim.Seed
	}
	return 0
}
